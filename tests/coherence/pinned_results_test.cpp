// Absolute coherence results, pinned. The golden-trace tests compare
// schedulers with each other and the substrate tests compare bound runs
// with unbound ones, so a change that moved LRU victims, NoC energy or
// latency the same way everywhere would pass them. These pins catch it:
// every SimStats field of each PBBS kernel at pbbs_test's small
// parameters (the energy as its bit pattern), and the digest of a
// shortened 64-core composed heartbeat + coherence run, mixed as
// perfbench/paper_stack.cpp mixes it.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>

#include "coherence/simulator.hpp"
#include "heartbeat/delivery.hpp"
#include "hwsim/machine.hpp"
#include "workloads/coherence_driver.hpp"
#include "workloads/pbbs_traces.hpp"

namespace iw {
namespace {

// --- PBBS kernels -----------------------------------------------------------

constexpr std::size_t kFields = 13;

std::array<std::uint64_t, kFields> fields(const coherence::SimStats& s) {
  return {s.accesses,
          s.private_hits,
          s.directory_lookups,
          s.directory_updates,
          s.invalidations,
          s.three_hop_transfers,
          s.memory_fetches,
          s.handoff_flushes,
          s.total_latency,
          s.noc.messages,
          s.noc.line_transfers,
          s.noc.socket_crossings,
          std::bit_cast<std::uint64_t>(s.noc.energy_pj)};
}

constexpr const char* kFieldNames[kFields] = {
    "accesses",       "private_hits",      "directory_lookups",
    "directory_updates", "invalidations",  "three_hop_transfers",
    "memory_fetches", "handoff_flushes",   "total_latency",
    "noc.messages",   "noc.line_transfers", "noc.socket_crossings",
    "noc.energy_pj bits"};

struct KernelPin {
  const char* kernel;
  std::array<std::uint64_t, kFields> base;
  std::array<std::uint64_t, kFields> deactivated;
};

// clang-format off
// Fields in fields()'s order; the last is the energy's bit pattern.
constexpr KernelPin kKernelPins[] = {
    {"map",
     {64000, 56000, 8000, 0, 2000, 4000, 4000, 0, 3231928, 20000, 8000, 9000, 4700356992642842624},
     {64000, 56000, 0, 0, 0, 0, 2000, 2000, 1676000, 10000, 6000, 5000, 4696991765507342336}},
    {"reduce",
     {36044, 31998, 4046, 0, 23, 2023, 2016, 0, 1644986, 10143, 4046, 4536, 4695929431116480512},
     {36044, 31998, 30, 0, 15, 15, 2016, 8, 1528786, 8143, 4054, 4038, 4695062620816801792}},
    {"filter",
     {80081, 73545, 6536, 0, 1258, 3258, 3278, 0, 2751786, 16330, 6536, 7342, 4698958422442246144},
     {80081, 73545, 2024, 0, 1002, 1002, 3022, 256, 2451538, 13306, 6280, 6394, 4698164523507384320}},
    {"bfs",
     {40000, 20933, 19067, 0, 14305, 16305, 2754, 0, 6758204, 54447, 19059, 27574, 4707219903705251840},
     {40000, 20941, 14051, 0, 13801, 13801, 2258, 504, 6283360, 50439, 18571, 26198, 4706936324194566144}},
    {"sort",
     {128000, 116348, 11652, 2269, 4150, 4944, 4000, 0, 4780818, 35280, 12870, 17105, 4704179262280695808},
     {128000, 116096, 0, 0, 0, 0, 2000, 5494, 3025520, 22698, 14602, 11350, 4702297016485543936}},
};
// clang-format on

coherence::SimStats run_kernel(const coherence::Trace& trace, unsigned cores,
                               std::uint64_t seed, bool deactivate) {
  coherence::SimConfig cfg;
  cfg.num_cores = cores;
  cfg.noc.num_cores = cores;
  cfg.private_cache = coherence::CacheConfig{64 * 1024, 8, 64};
  cfg.selective_deactivation = deactivate;
  coherence::CoherenceSim sim(cfg, Rng(seed));
  return sim.run(trace);
}

TEST(CoherencePins, PbbsKernelStatsAtSmallParams) {
  workloads::PbbsParams p;  // pbbs_test's small_params()
  p.cores = 8;
  p.elements = 16'000;
  p.rounds = 2;
  const auto suite = workloads::pbbs_suite(p);
  ASSERT_EQ(suite.size(), std::size(kKernelPins));
  for (std::size_t k = 0; k < suite.size(); ++k) {
    const KernelPin& pin = kKernelPins[k];
    ASSERT_EQ(suite[k].name, pin.kernel);
    const auto base = fields(run_kernel(suite[k], p.cores, p.seed, false));
    const auto deact = fields(run_kernel(suite[k], p.cores, p.seed, true));
    for (std::size_t f = 0; f < kFields; ++f) {
      EXPECT_EQ(base[f], pin.base[f])
          << pin.kernel << " base " << kFieldNames[f];
      EXPECT_EQ(deact[f], pin.deactivated[f])
          << pin.kernel << " deactivated " << kFieldNames[f];
    }
  }
}

// --- the composed run ---------------------------------------------------------

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

void mix_double(std::uint64_t& h, double d) {
  mix(h, std::bit_cast<std::uint64_t>(d));
}

constexpr Cycles kPeriod = 20'000;
constexpr Cycles kPollCost = 90;

/// Poll the heartbeat at every step boundary, then run the memory-bound
/// step (perfbench's and bench/composed_stack.cpp's wrapper).
class ComposedDriver final : public hwsim::CoreDriver {
 public:
  ComposedDriver(workloads::CoherenceDriver& work,
                 heartbeat::HeartbeatBackend& hb)
      : work_(work), hb_(hb) {}
  bool runnable(hwsim::Core& core) override { return work_.runnable(core); }
  void step(hwsim::Core& core) override {
    if (hb_.poll(core.id(), core.clock())) core.consume(kPollCost);
    work_.step(core);
  }

 private:
  workloads::CoherenceDriver& work_;
  heartbeat::HeartbeatBackend& hb_;
};

/// perfbench's composed item at `steps` per core: 64 cores, a default
/// SimConfig (so its NoC keeps 24 cores while ids 24..63 are passed, the
/// known constructor defect; this pin includes it), deactivation on, a
/// handoff of every private region at 40 periods.
std::uint64_t composed_digest(unsigned cores, std::uint64_t steps,
                              std::uint64_t seed) {
  hwsim::MachineConfig mc;
  mc.num_cores = cores;
  mc.seed = seed;
  mc.max_advances = 2'000'000'000ULL;
  hwsim::Machine m(mc);
  coherence::SimConfig sc;
  sc.num_cores = cores;
  sc.selective_deactivation = true;
  coherence::CoherenceSim sim(sc, m.rng_stream("coherence"));
  sim.bind_substrate(&m);
  workloads::CoherenceDriver::Config wc;
  wc.steps_per_core = steps;
  workloads::CoherenceDriver work(sim, cores, wc, m.rng_stream("workload"));
  heartbeat::NautilusHeartbeat backend(m);
  ComposedDriver driver(work, backend);
  for (unsigned c = 0; c < cores; ++c) m.core(c).set_driver(&driver);
  backend.start(kPeriod, cores);

  bool ok = m.run_until(40 * kPeriod);
  for (unsigned c = 0; c < cores; ++c) {
    work.handoff_private(c, (c + 1) % cores);
  }
  auto all_done = [&] {
    for (unsigned c = 0; c < cores; ++c) {
      if (work.steps_done(c) < steps) return false;
    }
    return true;
  };
  std::uint64_t guard = 4'000'000;
  while (ok && !all_done() && guard-- != 0) {
    ok = m.run_until(m.now() + kPeriod);
  }
  EXPECT_TRUE(ok && all_done());
  backend.stop();

  std::uint64_t h = 0xcbf29ce484222325ULL;
  const coherence::SimStats st = sim.stats();
  for (unsigned c = 0; c < cores; ++c) {
    const auto& bs = backend.state(c);
    mix(h, m.core(c).clock());
    mix(h, work.steps_done(c));
    mix(h, bs.delivered);
    mix(h, bs.last_delivery);
    mix(h, bs.duplicates_suppressed);
    mix(h, bs.interbeat.count());
    mix_double(h, bs.interbeat.mean());
  }
  mix(h, m.now());
  mix(h, st.accesses);
  mix(h, st.private_hits);
  mix(h, st.directory_lookups);
  mix(h, st.invalidations);
  mix(h, st.three_hop_transfers);
  mix(h, st.memory_fetches);
  mix(h, st.handoff_flushes);
  mix(h, st.total_latency);
  return h;
}

TEST(CoherencePins, Composed64CoreDigest) {
  // 1000 steps per core end near cycle 1.38 M, after the handoff at
  // 0.8 M, so the flushes and the re-fetches that follow are in it.
  EXPECT_EQ(composed_digest(64, 1000, 1), 0xd0e2e23290e91e2cULL);
}

}  // namespace
}  // namespace iw
