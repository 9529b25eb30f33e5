// google-benchmark microbenchmarks of the hot substrate primitives:
// these are the operations every simulated experiment leans on, so
// regressions here inflate every figure's wall-clock cost.
#include <benchmark/benchmark.h>

#include "carat/native_guards.hpp"
#include "coherence/simulator.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "des_workload.hpp"
#include "hwsim/event_queue.hpp"
#include "hwsim/machine.hpp"
#include "mem/buddy_allocator.hpp"
#include "mem/paging.hpp"
#include "mem/tlb.hpp"
#include "pipeline/branch_predictor.hpp"
#include "workloads/miniapp.hpp"

using namespace iw;

namespace {

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_RngHeavyTail(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.heavy_tail(50.0, 1.2, 5000.0));
  }
}
BENCHMARK(BM_RngHeavyTail);

// Steady-state push+pop at a fixed occupancy: the heap depth (log of
// occupancy) is the per-event scheduler cost the frontier work targets.
void BM_EventQueuePushPop(benchmark::State& state) {
  const auto occupancy = static_cast<std::size_t>(state.range(0));
  hwsim::TimedQueue<hwsim::IrqEvent> q;
  Rng rng(7);
  std::uint64_t seq = 0;
  while (q.size() < occupancy) {
    hwsim::IrqEvent ev;
    ev.time = rng.uniform(0, 1'000'000);
    ev.seq = seq++;
    q.push(ev);
  }
  for (auto _ : state) {
    hwsim::IrqEvent ev;
    ev.time = rng.uniform(0, 1'000'000);
    ev.seq = seq++;
    q.push(ev);
    benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024)->Arg(65536);

// The packed-heap steady state the tentpole targets: pre-sized slab,
// provenance-style (counter << 16 | source) seqs, trivially copyable
// 16-byte heap records. bytes_per_hot_event in the throughput bench is
// sizeof the Rec this loop sifts.
void BM_EventQueuePushPopPacked(benchmark::State& state) {
  const auto occupancy = static_cast<std::size_t>(state.range(0));
  hwsim::TimedQueue<hwsim::IrqEvent> q;
  q.reserve(occupancy + 1);
  Rng rng(7);
  std::uint64_t counter = 0;
  const auto make_ev = [&] {
    hwsim::IrqEvent ev;
    ev.time = rng.uniform(0, 1'000'000);
    const std::uint64_t n = counter++;
    ev.seq = (n << 16) | (n & 0xFF);
    return ev;
  };
  while (q.size() < occupancy) q.push(make_ev());
  for (auto _ : state) {
    q.push(make_ev());
    benchmark::DoNotOptimize(q.pop());
  }
  state.counters["grow_allocs"] =
      benchmark::Counter(static_cast<double>(q.grow_allocs()));
}
BENCHMARK(BM_EventQueuePushPopPacked)->Arg(64)->Arg(1024)->Arg(65536);

// Allocation-free timer-tagged CoreEvents (the dominant scheduled-work
// case after the LapicTimer/PosixTimer conversion).
void BM_EventQueuePushPopTimer(benchmark::State& state) {
  struct NullSink final : hwsim::TimerSink {
    void on_timer(hwsim::Core&, Cycles, std::uint64_t) override {}
  };
  static NullSink timer_sink;
  const auto occupancy = static_cast<std::size_t>(state.range(0));
  hwsim::TimedQueue<hwsim::CoreEvent> q;
  Rng rng(7);
  std::uint64_t seq = 0;
  const auto make_ev = [&] {
    hwsim::CoreEvent ev;
    ev.time = rng.uniform(0, 1'000'000);
    ev.seq = seq++;
    ev.timer = &timer_sink;
    ev.gen = seq;
    return ev;
  };
  while (q.size() < occupancy) q.push(make_ev());
  for (auto _ : state) {
    q.push(make_ev());
    benchmark::DoNotOptimize(q.pop());
  }
}
BENCHMARK(BM_EventQueuePushPopTimer)->Arg(64)->Arg(1024)->Arg(65536);

// One full DES iteration (pick + advance) under the IPI+LAPIC heartbeat
// workload. Args: {cores, 0=frontier | 1=linear}. The frontier/linear
// gap at 64/256 cores is the headline scheduler win; absolute
// before/after numbers go in PR descriptions.
void BM_MachineAdvanceOnce(benchmark::State& state) {
  const auto cores = static_cast<unsigned>(state.range(0));
  const auto sched = state.range(1) == 0 ? hwsim::SchedulerKind::kFrontier
                                         : hwsim::SchedulerKind::kLinearScan;
  bench::DesWorkload w = bench::make_des_workload(cores, sched);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.machine->advance_n(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MachineAdvanceOnce)
    ->ArgNames({"cores", "linear"})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1});

/// A spin that declines fast-forward certificates, so its core's send
/// horizon is its clock and every epoch stays one lookahead wide.
class LookaheadSpin final : public hwsim::CoreDriver {
 public:
  explicit LookaheadSpin(Cycles step) : step_(step) {}
  bool runnable(hwsim::Core&) override { return true; }
  void step(hwsim::Core& core) override { core.consume(step_); }

 private:
  Cycles step_;
};

// Per-epoch overhead of the per-core parallel engine: 4096 cores whose
// spin step costs exactly the lookahead, so every epoch drains one cheap
// event per shard and the shard claims, barrier and fold dominate.
// Args: {threads}. Each iteration runs kEpochs epochs in one run_until
// (amortizing the per-run scan); items are shard drains.
void BM_ParallelEpochClaims(benchmark::State& state) {
  constexpr unsigned kCores = 4096;
  constexpr Cycles kEpochs = 16;
  hwsim::MachineConfig mc;
  mc.num_cores = kCores;
  mc.scheduler = hwsim::SchedulerKind::kParallelEpoch;
  mc.threads = static_cast<unsigned>(state.range(0));
  hwsim::Machine m(mc);
  const Cycles la = mc.costs.ipi_latency;
  LookaheadSpin driver(la);
  for (unsigned i = 0; i < kCores; ++i) m.core(i).set_driver(&driver);
  Cycles until = kEpochs * la;
  m.run_until(until);  // builds the worker pool outside the timing
  const std::uint64_t adv0 = m.total_advances();
  for (auto _ : state) {
    until += kEpochs * la;
    benchmark::DoNotOptimize(m.run_until(until));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(m.total_advances() - adv0));
}
BENCHMARK(BM_ParallelEpochClaims)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

// The frontier refresh scan reads every core's cached next-action time.
// These two benches lock in the SoA hot-path slice: the machine now owns
// the cached times as one dense Cycles array (BM_SchedScanDense) instead
// of reading a 64B-padded cell inside each Core object
// (BM_SchedScanScattered) — ~8x fewer cache lines per scan at width 8.
void BM_SchedScanDense(benchmark::State& state) {
  const auto cores = static_cast<std::size_t>(state.range(0));
  std::vector<Cycles> times(cores);
  Rng rng(11);
  for (auto& t : times) t = rng.uniform(0, 1'000'000);
  for (auto _ : state) {
    Cycles best = kNever;
    for (const Cycles t : times) best = std::min(best, t);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cores));
}
BENCHMARK(BM_SchedScanDense)->Arg(64)->Arg(1024)->Arg(8192);

void BM_SchedScanScattered(benchmark::State& state) {
  struct alignas(64) PaddedTime {
    Cycles t{0};
  };
  const auto cores = static_cast<std::size_t>(state.range(0));
  std::vector<PaddedTime> times(cores);
  Rng rng(11);
  for (auto& c : times) c.t = rng.uniform(0, 1'000'000);
  for (auto _ : state) {
    Cycles best = kNever;
    for (const PaddedTime& c : times) best = std::min(best, c.t);
    benchmark::DoNotOptimize(best);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cores));
}
BENCHMARK(BM_SchedScanScattered)->Arg(64)->Arg(1024)->Arg(8192);

// Cost of one quiet-window proof: the O(cores) scan fast-forward pays
// before every skip. It must stay cheap enough that a failed proof
// (plus the backoff) never shows up against event-stepped progress.
void BM_ProveQuietUntil(benchmark::State& state) {
  const auto cores = static_cast<unsigned>(state.range(0));
  bench::DesWorkload w =
      bench::make_des_workload(cores, hwsim::SchedulerKind::kFrontier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(w.machine->prove_quiet_until(kNever));
  }
}
BENCHMARK(BM_ProveQuietUntil)->Arg(16)->Arg(256)->Arg(4096);

// One 200k-cycle window of the long-quiet heartbeat workload (50-cycle
// steps, 100k beat period), full fidelity vs analytic skip-ahead.
// Args: {cores, ff}. The gap is the tentpole win at microbench scale;
// bench/fastforward.cpp measures it at run scale.
void BM_MachineRunWindow(benchmark::State& state) {
  const auto cores = static_cast<unsigned>(state.range(0));
  bench::DesWorkload w = bench::make_des_workload(
      cores, hwsim::SchedulerKind::kFrontier, 50, 100'000);
  hwsim::FastForwardPolicy pol;
  pol.enabled = state.range(1) != 0;
  w.machine->set_fast_forward(pol);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        w.machine->run_until(w.machine->now() + 200'000));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(w.machine->total_advances()));
}
BENCHMARK(BM_MachineRunWindow)
    ->ArgNames({"cores", "ff"})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

void BM_BuddyAllocFree(benchmark::State& state) {
  mem::BuddyAllocator buddy(0, 1 << 24, 64);
  Rng rng(3);
  std::vector<Addr> live;
  for (auto _ : state) {
    if (live.size() < 256 && rng.chance(0.6)) {
      if (auto a = buddy.alloc(rng.uniform(64, 4096))) live.push_back(*a);
    } else if (!live.empty()) {
      buddy.free(live.back());
      live.pop_back();
    }
  }
  for (Addr a : live) buddy.free(a);
}
BENCHMARK(BM_BuddyAllocFree);

void BM_TlbAccess(benchmark::State& state) {
  mem::Tlb tlb(mem::TlbConfig{64, 4096, 0, 130});
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.access(rng.uniform(0, (1 << 28) - 1)));
  }
}
BENCHMARK(BM_TlbAccess);

// One OpenMP worker's pre-fault at Fig. 6's size, as run_miniapp does it
// before a Linux run: a fresh 64-entry DemandPaging swept once over
// BT-mini n = 48's footprint plus one page, 4 KiB apart.
void BM_PagingTouchSweep(benchmark::State& state) {
  const std::uint64_t pages =
      (workloads::bt_mini(48, 3).footprint_bytes + 4096 + 4095) / 4096;
  for (auto _ : state) {
    mem::DemandPaging paging(mem::DemandPaging::Config{});
    benchmark::DoNotOptimize(paging.touch_sweep(7 * 64, pages, 4096));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    pages));
}
BENCHMARK(BM_PagingTouchSweep);

// One composed-run step without the machine around it: 64 cores, each
// with a deactivated 512-line private region, plus one 128-line shared
// region taking 15 % of accesses, 4 accesses per step (the defaults of
// workloads::CoherenceDriver). Cores take steps in turn.
void BM_CoherenceAccess(benchmark::State& state) {
  constexpr unsigned kCores = 64;
  constexpr std::uint64_t kLine = 64, kPrivateLines = 512, kSharedLines = 128;
  coherence::SimConfig cfg;
  cfg.num_cores = kCores;
  cfg.selective_deactivation = true;
  coherence::CoherenceSim sim(cfg, Rng(1));
  std::vector<coherence::Region> regions(kCores + 1);
  regions[0].base = 0x1000'0000;
  regions[0].size = kSharedLines * kLine;
  for (unsigned c = 0; c < kCores; ++c) {
    coherence::Region& r = regions[1 + c];
    r.id = 1 + c;
    r.base = 0x2000'0000 + static_cast<Addr>(c) * 0x0100'0000;
    r.size = kPrivateLines * kLine;
    r.cls = coherence::RegionClass::kTaskPrivate;
  }
  Rng rng(7);
  unsigned core = 0;
  for (auto _ : state) {
    for (int i = 0; i < 4; ++i) {
      const coherence::Region& r = regions[rng.chance(0.15) ? 0 : 1 + core];
      coherence::Access a;
      a.core = core;
      a.type = rng.chance(0.3) ? coherence::AccessType::kWrite
                               : coherence::AccessType::kRead;
      a.addr = r.base + rng.uniform(0, r.size / kLine - 1) * kLine;
      a.region = r.id;
      benchmark::DoNotOptimize(sim.access(a, r));
    }
    core = (core + 1) % kCores;
  }
}
BENCHMARK(BM_CoherenceAccess);

// Fig. 7's regime, where BM_CoherenceAccess's caches are nearly empty:
// 24 cores with 64 KiB 8-way caches each read 8-byte elements of a
// private array four times its cache in order, so every set is full and
// each line takes one miss (an eviction) and then seven MRU hits. Cores
// take accesses in turn.
void BM_CoherenceSweep(benchmark::State& state) {
  constexpr unsigned kCores = 24;
  constexpr std::uint64_t kElem = 8, kArrayBytes = 256 * 1024;
  coherence::SimConfig cfg;
  cfg.num_cores = kCores;
  cfg.noc.num_cores = kCores;
  cfg.private_cache = coherence::CacheConfig{64 * 1024, 8, 64};
  coherence::CoherenceSim sim(cfg, Rng(1));
  std::vector<coherence::Region> regions(kCores);
  for (unsigned c = 0; c < kCores; ++c) {
    coherence::Region& r = regions[c];
    r.id = c;
    r.base = 0x2000'0000 + static_cast<Addr>(c) * 0x0100'0000;
    r.size = kArrayBytes;
    r.cls = coherence::RegionClass::kTaskPrivate;
  }
  unsigned core = 0;
  std::uint64_t offset = 0;
  for (auto _ : state) {
    const coherence::Region& r = regions[core];
    coherence::Access a;
    a.core = core;
    a.type = coherence::AccessType::kRead;
    a.addr = r.base + offset;
    a.region = r.id;
    benchmark::DoNotOptimize(sim.access(a, r));
    if (++core == kCores) {
      core = 0;
      offset = (offset + kElem) % kArrayBytes;
    }
  }
}
BENCHMARK(BM_CoherenceSweep);

void BM_GuardCheckFull(benchmark::State& state) {
  carat::FullGuard g;
  std::vector<double> buf(4096);
  g.on_alloc(buf.data(), buf.size() * 8);
  std::size_t i = 0;
  for (auto _ : state) {
    g.check(&buf[i++ & 4095], 8);
  }
}
BENCHMARK(BM_GuardCheckFull);

void BM_GuardCheckCached(benchmark::State& state) {
  carat::CachedGuard g;
  std::vector<double> buf(4096);
  g.on_alloc(buf.data(), buf.size() * 8);
  std::size_t i = 0;
  for (auto _ : state) {
    g.check(&buf[i++ & 4095], 8);
  }
}
BENCHMARK(BM_GuardCheckCached);

void BM_GsharePredict(benchmark::State& state) {
  pipeline::GsharePredictor p;
  std::uint64_t pc = 0x1000;
  bool taken = false;
  for (auto _ : state) {
    taken = !taken;
    benchmark::DoNotOptimize(p.resolve(pc += 4, taken));
  }
}
BENCHMARK(BM_GsharePredict);

void BM_HistogramAdd(benchmark::State& state) {
  LatencyHistogram h;
  Rng rng(5);
  for (auto _ : state) {
    h.add(rng.uniform(1, 1'000'000));
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramAdd);

}  // namespace

BENCHMARK_MAIN();
