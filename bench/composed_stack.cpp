// The composed-stack run: heartbeat delivery and coherence-charged
// memory accesses interwoven on ONE machine. Every core runs a
// CoherenceDriver step loop (compute + misses charged by a CoherenceSim
// bound to the machine-as-substrate) with a TPAL-style promotion poll at
// each step boundary, while the Nautilus heartbeat (LAPIC on CPU 0 ->
// IPI broadcast) fires across the same cores. A directory stall
// genuinely delays the next poll; a dropped IPI (--faults=) lands next
// to the miss that preceded it — all on one virtual-cycle axis.
//
//   --trace=FILE   one Chrome trace: hwsim (ipi.*, lapic.*), heartbeat
//                  (heartbeat.beat / poll_consumed) and coherence
//                  (coherence.miss / handoff_flush) spans, shared axis
//   --metrics-json=FILE  every layer's counters in one registry dump
//   --faults=SPEC  deterministic fault plan on the same fabric
//
// The bench always runs the same seed on the frontier and the linear
// scan and compares a digest of the full observable state (core clocks,
// beat ledgers, coherence stats); exit status 1 on divergence. The
// coherence directory is shared across cores outside the IPI fabric, so
// the per-core epoch engine refuses this workload. Same-seed reruns are
// bit-identical — the determinism contract the golden-trace tests
// (tests/substrate/) pin down byte-for-byte.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "coherence/simulator.hpp"
#include "harness.hpp"
#include "heartbeat/delivery.hpp"
#include "hwsim/machine.hpp"
#include "workloads/coherence_driver.hpp"

using namespace iw;

namespace {

bench::Harness harness;

struct Params {
  unsigned cores{8};
  std::uint64_t steps{4'000};
  Cycles period{20'000};
  Cycles poll_cost{90};
  bool deactivate{true};
};

/// The promotion-point wrapper: poll the heartbeat at every step
/// boundary (where a compiler would have inserted the poll), then run
/// the memory-bound step. This is the interweaving in driver form.
class ComposedDriver final : public hwsim::CoreDriver {
 public:
  ComposedDriver(workloads::CoherenceDriver& work,
                 heartbeat::HeartbeatBackend& hb, Cycles poll_cost)
      : work_(work), hb_(hb), poll_cost_(poll_cost) {}

  bool runnable(hwsim::Core& core) override { return work_.runnable(core); }

  void step(hwsim::Core& core) override {
    if (hb_.poll(core.id(), core.clock())) core.consume(poll_cost_);
    work_.step(core);
  }

 private:
  workloads::CoherenceDriver& work_;
  heartbeat::HeartbeatBackend& hb_;
  Cycles poll_cost_;
};

struct RunResult {
  Cycles end_cycle{0};
  std::uint64_t accesses{0};
  std::uint64_t beats{0};
  std::uint64_t misses{0};
  std::uint64_t flushes{0};
  double avg_access_lat{0.0};
  double worst_cv{0.0};
  std::uint64_t digest{0};
};

void mix(std::uint64_t& h, std::uint64_t v) {
  // FNV-1a over the 8 bytes of v.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

void mix_double(std::uint64_t& h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  mix(h, bits);
}

RunResult run_one(const Params& p, hwsim::SchedulerKind sched,
                  const char* label) {
  hwsim::MachineConfig mc;
  mc.num_cores = p.cores;
  mc.max_advances = 2'000'000'000ULL;
  harness.apply(mc);
  // After apply(): this bench sweeps the schedulers itself, so the
  // cross-scheduler digest check stays meaningful even if a
  // --scheduler= flag is passed.
  mc.scheduler = sched;
  hwsim::Machine m(mc);
  harness.attach(m, label);

  coherence::SimConfig sc;
  sc.num_cores = p.cores;
  sc.selective_deactivation = p.deactivate;
  coherence::CoherenceSim sim(sc, m.rng_stream("coherence"));
  sim.bind_substrate(&m);

  workloads::CoherenceDriver::Config wc;
  wc.steps_per_core = p.steps;
  workloads::CoherenceDriver work(sim, p.cores, wc,
                                  m.rng_stream("workload"));

  heartbeat::NautilusHeartbeat hb(m);
  if (harness.faults_enabled()) {
    heartbeat::FaultToleranceConfig ft;
    ft.enabled = true;
    hb.set_fault_tolerance(ft);
  }

  ComposedDriver driver(work, hb, p.poll_cost);
  for (unsigned c = 0; c < p.cores; ++c) {
    m.core(c).set_driver(&driver);
  }
  hb.start(p.period, p.cores);

  // Mid-run task steal: rotate every private region one core to the
  // right at a fixed virtual time. Under deactivation the old owners'
  // incoherent lines flush — the handoff spans on the trace.
  const Cycles handoff_at = 40 * p.period;
  m.run_until(handoff_at);
  for (unsigned c = 0; c < p.cores; ++c) {
    work.handoff_private(c, (c + 1) % p.cores);
  }

  // Run the workload dry. The LAPIC keeps the machine non-quiescent
  // forever, so drive in period-sized time slices until every core
  // finished its steps (time-based slices bound the overshoot past
  // completion to one period; the DES ordering, and therefore
  // everything measured, is independent of the slice size).
  auto all_done = [&] {
    for (unsigned c = 0; c < p.cores; ++c) {
      if (work.steps_done(c) < p.steps) return false;
    }
    return true;
  };
  std::uint64_t slice_guard = 4'000'000;
  while (!all_done() && slice_guard-- != 0) {
    m.run_until(m.now() + p.period);
  }
  hb.stop();

  RunResult r;
  r.end_cycle = m.now();
  r.accesses = work.total_accesses();
  const auto& st = sim.stats();
  r.misses = st.accesses - st.private_hits;
  r.flushes = st.handoff_flushes;
  r.avg_access_lat = st.avg_latency();

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned c = 0; c < p.cores; ++c) {
    const auto& bs = hb.state(c);
    r.beats += bs.delivered;
    r.worst_cv = std::max(r.worst_cv, hb.jitter_cv(c));
    mix(h, m.core(c).clock());
    mix(h, work.steps_done(c));
    mix(h, bs.delivered);
    mix(h, bs.last_delivery);
    mix(h, bs.duplicates_suppressed);
    mix(h, bs.interbeat.count());
    mix_double(h, bs.interbeat.mean());
  }
  mix(h, r.end_cycle);
  mix(h, st.accesses);
  mix(h, st.private_hits);
  mix(h, st.directory_lookups);
  mix(h, st.invalidations);
  mix(h, st.three_hop_transfers);
  mix(h, st.memory_fetches);
  mix(h, st.handoff_flushes);
  mix(h, st.total_latency);
  r.digest = h;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  if (!harness.parse(argc, argv)) return 2;
  Params p;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* pfx) -> const char* {
      return arg.rfind(pfx, 0) == 0 ? arg.c_str() + std::strlen(pfx)
                                    : nullptr;
    };
    if (const char* v = val("--cores=")) p.cores = std::stoul(v);
    if (const char* v = val("--steps=")) p.steps = std::stoull(v);
    if (const char* v = val("--period=")) p.period = std::stoull(v);
    if (arg == "--no-deactivate") p.deactivate = false;
  }

  std::printf("== composed stack: heartbeat + coherence on one fabric ==\n");
  std::printf("cores=%u steps/core=%llu period=%llu deactivation=%s\n\n",
              p.cores, static_cast<unsigned long long>(p.steps),
              static_cast<unsigned long long>(p.period),
              p.deactivate ? "on" : "off");
  std::printf("%-10s %12s %10s %8s %9s %8s %9s %18s\n", "scheduler",
              "end_cycle", "accesses", "beats", "misses", "flushes",
              "avg_lat", "digest");

  struct Sched {
    hwsim::SchedulerKind kind;
    const char* name;
  };
  constexpr int kScheds = 2;
  RunResult res[kScheds];
  const Sched scheds[kScheds] = {
      {hwsim::SchedulerKind::kFrontier, "frontier"},
      {hwsim::SchedulerKind::kLinearScan, "linear"}};
  for (int s = 0; s < kScheds; ++s) {
    const std::string label = std::string("composed/") + scheds[s].name;
    res[s] = run_one(p, scheds[s].kind, label.c_str());
    std::printf("%-10s %12llu %10llu %8llu %9llu %8llu %9.1f %018llx\n",
                scheds[s].name,
                static_cast<unsigned long long>(res[s].end_cycle),
                static_cast<unsigned long long>(res[s].accesses),
                static_cast<unsigned long long>(res[s].beats),
                static_cast<unsigned long long>(res[s].misses),
                static_cast<unsigned long long>(res[s].flushes),
                res[s].avg_access_lat,
                static_cast<unsigned long long>(res[s].digest));
  }

  const bool identical = res[0].digest == res[1].digest;
  std::printf("\nscheduler determinism: %s\n",
              identical ? "bit-identical state digests"
                        : "DIGESTS DIVERGE (DES ordering bug)");
  if (!harness.finish()) return 1;
  return identical ? 0 : 1;
}
