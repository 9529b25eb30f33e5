// paper_stack: the figure runs that execute on the DES, on the default
// frontier scheduler — what a figure user waits for.
//   * Fig. 6 OpenMP: BT- and SP-mini at n=48 in Linux/RTK/PIK/CCK modes
//     at 8/16/32/64 threads (omp, nautilus, linuxmodel, mem);
//   * Fig. 3 TPAL: Nautilus LAPIC+IPI, Linux relay and Linux per-thread
//     timers at 20 and 100 us on 16 CPUs, 30 M iterations — 10x the
//     figure's count, so this family carries its share of a pass
//     (heartbeat, nautilus, linuxmodel);
//   * the 64-core composed heartbeat + coherence run at 4000 steps/core
//     (heartbeat, coherence).
// Every item builds its machine inside the item, as the figure benches
// do. A pass runs every item once; passes repeat until --seconds pass.
#include <cstdio>
#include <memory>
#include <string>

#include "bench.hpp"
#include "coherence/simulator.hpp"
#include "heartbeat/delivery.hpp"
#include "heartbeat/tpal.hpp"
#include "hwsim/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "omp/runtime.hpp"
#include "workloads/coherence_driver.hpp"

namespace pb {
namespace {

using iw::Cycles;
namespace hwsim = iw::hwsim;
namespace hb = iw::heartbeat;
namespace omp = iw::omp;

enum class Family { kOmp, kTpal, kComposed };
enum class TpalStackKind { kNautilus, kLinuxRelay, kLinuxPerThread };

struct Shape {
  unsigned omp_n;
  unsigned omp_timesteps;
  std::vector<unsigned> omp_threads;
  unsigned tpal_cpus;
  std::uint64_t tpal_iters;
  unsigned composed_cores;
  std::uint64_t composed_steps;
  unsigned setups;
};

Shape shape(bool toy) {
  if (toy) return {12, 1, {4, 8}, 16, 300'000, 8, 400, 2};
  return {48, 3, {8, 16, 32, 64}, 16, 30'000'000, 64, 4000, 9};
}

struct Item {
  Family family;
  std::string id;
  const iw::workloads::MiniApp* app{nullptr};
  omp::OmpMode mode{omp::OmpMode::kLinux};
  unsigned threads{0};
  TpalStackKind stack{TpalStackKind::kNautilus};
  double heart_us{0.0};
  std::uint64_t seed{0};
  /// Checked against the linear-scan scheduler at seeds without pins.
  bool oracle_sample{false};
};

/// What an item yields besides its checked result string.
struct ItemOut {
  std::string result;
  bool ok{true};
  double sim_cycles{0.0};
  std::uint64_t events{0};  // 0 where the machine is private (omp)
  double run_s{0.0};        // wall inside the machine's run loop
  // layer counters
  std::uint64_t syscalls{0};
  double tlb_miss_rate{0.0};
  std::uint64_t promotions{0};
  std::uint64_t polls{0};
  std::uint64_t context_switches{0};
  std::uint64_t accesses{0};
  std::uint64_t private_hits{0};
  double step_s{0.0};  // sampled coherence step wall, scaled up
};

struct Sinks {
  iw::obs::TraceRecorder* tracer{nullptr};
  iw::obs::MetricsRegistry* metrics{nullptr};
};

// --- Fig. 6 OpenMP ----------------------------------------------------------

ItemOut run_omp(const Item& it, hwsim::SchedulerKind sched) {
  omp::OmpConfig cfg;
  cfg.mode = it.mode;
  cfg.num_threads = it.threads;
  cfg.seed = it.seed;
  cfg.scheduler = sched;
  omp::OmpResult r;
  {
    spans::Scope s(it.mode == omp::OmpMode::kLinux ? "omp.run_miniapp.linux"
                                                   : "omp.run_miniapp.kernel");
    r = omp::run_miniapp(*it.app, cfg);
  }
  ItemOut o;
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "makespan=%llu barriers=%llu tasks=%llu syscalls=%llu "
                "tlb=%.17g",
                static_cast<unsigned long long>(r.makespan),
                static_cast<unsigned long long>(r.barriers_passed),
                static_cast<unsigned long long>(r.tasks_executed),
                static_cast<unsigned long long>(r.syscalls), r.tlb_miss_rate);
  o.result = buf;
  o.sim_cycles = static_cast<double>(r.makespan) * it.threads;
  o.syscalls = r.syscalls;
  o.tlb_miss_rate = r.tlb_miss_rate;
  return o;
}

// --- Fig. 3 TPAL ------------------------------------------------------------

struct TpalStack {
  std::unique_ptr<hwsim::Machine> m;
  std::unique_ptr<iw::linuxmodel::LinuxStack> lx;
  std::unique_ptr<iw::nautilus::Kernel> nk;
  std::unique_ptr<hb::HeartbeatBackend> backend;
  iw::nautilus::Kernel* k{nullptr};
};

TpalStack build_tpal(const Item& it, unsigned cpus, hwsim::SchedulerKind sched,
                     Sinks sinks) {
  TpalStack s;
  hwsim::MachineConfig mc;
  mc.num_cores = cpus;
  mc.costs = hwsim::CostModel::knl();
  mc.seed = it.seed;
  mc.max_advances = 2'000'000'000ULL;
  mc.scheduler = sched;
  {
    spans::Scope sp("hwsim.build", 0);
    s.m = std::make_unique<hwsim::Machine>(mc);
  }
  s.m->set_tracer(sinks.tracer);
  s.m->set_metrics(sinks.metrics);
  if (it.stack == TpalStackKind::kNautilus) {
    s.nk = std::make_unique<iw::nautilus::Kernel>(*s.m);
    s.k = s.nk.get();
    s.backend = std::make_unique<hb::NautilusHeartbeat>(*s.m);
  } else {
    s.lx = std::make_unique<iw::linuxmodel::LinuxStack>(*s.m);
    s.k = &s.lx->kernel();
    s.backend = std::make_unique<hb::LinuxHeartbeat>(
        *s.lx, it.stack == TpalStackKind::kLinuxRelay
                   ? hb::LinuxHeartbeatMode::kRelay
                   : hb::LinuxHeartbeatMode::kPerThreadTimer);
  }
  s.k->attach();
  return s;
}

ItemOut run_tpal(const Item& it, const Shape& sh, hwsim::SchedulerKind sched,
                 Sinks sinks) {
  TpalStack s = build_tpal(it, sh.tpal_cpus, sched, sinks);
  hb::TpalConfig cfg;
  cfg.num_workers = sh.tpal_cpus;
  cfg.total_iters = sh.tpal_iters;
  cfg.cycles_per_iter = 30;
  cfg.heartbeat_period = s.m->costs().freq.us_to_cycles(it.heart_us);
  hb::TpalResult r;
  ItemOut o;
  {
    spans::Scope sp("heartbeat.tpal.run");
    const auto t0 = Clock::now();
    r = hb::TpalRuntime(*s.k, cfg, s.backend.get()).run();
    o.run_s = seconds_since(t0);
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "makespan=%llu promotions=%llu steals=%llu polls=%llu "
                "beats=%llu work=%llu overhead=%llu",
                static_cast<unsigned long long>(r.makespan),
                static_cast<unsigned long long>(r.promotions),
                static_cast<unsigned long long>(r.steals),
                static_cast<unsigned long long>(r.polls),
                static_cast<unsigned long long>(r.beats_handled),
                static_cast<unsigned long long>(r.work_cycles),
                static_cast<unsigned long long>(r.overhead_cycles));
  o.result = buf;
  o.sim_cycles = static_cast<double>(r.makespan) * sh.tpal_cpus;
  o.events = s.m->total_advances();
  o.syscalls = s.lx ? s.lx->syscall_count() : 0;
  o.promotions = r.promotions;
  o.polls = r.polls;
  o.context_switches = s.k->stats().context_switches;
  return o;
}

// --- composed heartbeat + coherence --------------------------------------

constexpr Cycles kComposedPeriod = 20'000;
constexpr Cycles kComposedPollCost = 90;
/// Traced runs time one coherence step in this many.
constexpr std::uint64_t kStepSample = 16;

/// The promotion-point wrapper of bench/composed_stack.cpp: poll the
/// heartbeat at every step boundary, then run the memory-bound step. In
/// traced runs it also samples the wall time of the coherence steps.
class ComposedDriver final : public hwsim::CoreDriver {
 public:
  ComposedDriver(iw::workloads::CoherenceDriver& work,
                 hb::HeartbeatBackend& backend, bool sample)
      : work_(work), hb_(backend), sample_(sample) {}

  bool runnable(hwsim::Core& core) override { return work_.runnable(core); }

  void step(hwsim::Core& core) override {
    if (hb_.poll(core.id(), core.clock())) core.consume(kComposedPollCost);
    if (sample_ && ++steps_ % kStepSample == 0) {
      const auto t0 = Clock::now();
      work_.step(core);
      sampled_s_ += seconds_since(t0);
      return;
    }
    work_.step(core);
  }

  [[nodiscard]] double sampled_s() const { return sampled_s_; }

 private:
  iw::workloads::CoherenceDriver& work_;
  hb::HeartbeatBackend& hb_;
  bool sample_;
  std::uint64_t steps_{0};
  double sampled_s_{0.0};
};

struct ComposedStack {
  std::unique_ptr<hwsim::Machine> m;
  std::unique_ptr<iw::coherence::CoherenceSim> sim;
  std::unique_ptr<iw::workloads::CoherenceDriver> work;
  std::unique_ptr<hb::NautilusHeartbeat> backend;
  std::unique_ptr<ComposedDriver> driver;
};

ComposedStack build_composed(const Item& it, const Shape& sh,
                             hwsim::SchedulerKind sched, Sinks sinks) {
  ComposedStack s;
  const unsigned cores = sh.composed_cores;
  hwsim::MachineConfig mc;
  mc.num_cores = cores;
  mc.seed = it.seed;
  mc.max_advances = 2'000'000'000ULL;
  mc.scheduler = sched;
  {
    spans::Scope sp("hwsim.build", 0);
    s.m = std::make_unique<hwsim::Machine>(mc);
  }
  s.m->set_tracer(sinks.tracer);
  s.m->set_metrics(sinks.metrics);
  iw::coherence::SimConfig sc;
  sc.num_cores = cores;
  sc.selective_deactivation = true;
  s.sim = std::make_unique<iw::coherence::CoherenceSim>(
      sc, s.m->rng_stream("coherence"));
  s.sim->bind_substrate(s.m.get());
  iw::workloads::CoherenceDriver::Config wc;
  wc.steps_per_core = sh.composed_steps;
  s.work = std::make_unique<iw::workloads::CoherenceDriver>(
      *s.sim, cores, wc, s.m->rng_stream("workload"));
  s.backend = std::make_unique<hb::NautilusHeartbeat>(*s.m);
  s.driver = std::make_unique<ComposedDriver>(*s.work, *s.backend,
                                              spans::enabled());
  for (unsigned c = 0; c < cores; ++c) s.m->core(c).set_driver(s.driver.get());
  s.backend->start(kComposedPeriod, cores);
  return s;
}

ItemOut run_composed(const Item& it, const Shape& sh,
                     hwsim::SchedulerKind sched, Sinks sinks) {
  ComposedStack s = build_composed(it, sh, sched, sinks);
  const unsigned cores = sh.composed_cores;
  hwsim::Machine& m = *s.m;
  ItemOut o;
  {
    spans::Scope sp("coherence.composed.run");
    const auto t0 = Clock::now();
    // Mid-run task steal, then run dry in period-sized slices, exactly
    // as bench/composed_stack.cpp does.
    o.ok = m.run_until(40 * kComposedPeriod);
    for (unsigned c = 0; c < cores; ++c) {
      s.work->handoff_private(c, (c + 1) % cores);
    }
    auto all_done = [&] {
      for (unsigned c = 0; c < cores; ++c) {
        if (s.work->steps_done(c) < sh.composed_steps) return false;
      }
      return true;
    };
    std::uint64_t guard = 4'000'000;
    while (o.ok && !all_done() && guard-- != 0) {
      o.ok = m.run_until(m.now() + kComposedPeriod);
    }
    o.ok = o.ok && all_done();
    s.backend->stop();
    o.run_s = seconds_since(t0);
  }

  // State digest mixed as bench/composed_stack.cpp mixes it.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto& st = s.sim->stats();
  Cycles clocks = 0;
  for (unsigned c = 0; c < cores; ++c) {
    const auto& bs = s.backend->state(c);
    mix(h, m.core(c).clock());
    mix(h, s.work->steps_done(c));
    mix(h, bs.delivered);
    mix(h, bs.last_delivery);
    mix(h, bs.duplicates_suppressed);
    mix(h, bs.interbeat.count());
    mix_double(h, bs.interbeat.mean());
    clocks += m.core(c).clock();
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
  o.result = "digest=" + hex(h);
  o.sim_cycles = static_cast<double>(clocks);
  o.events = m.total_advances();
  o.accesses = st.accesses;
  o.private_hits = st.private_hits;
  o.step_s = s.driver->sampled_s() * kStepSample;
  return o;
}

ItemOut run_item(const Item& it, const Shape& sh, hwsim::SchedulerKind sched,
                 Sinks sinks = {}) {
  switch (it.family) {
    case Family::kOmp: return run_omp(it, sched);
    case Family::kTpal: return run_tpal(it, sh, sched, sinks);
    case Family::kComposed: return run_composed(it, sh, sched, sinks);
  }
  return {};
}

std::vector<Item> make_items(const Shape& sh, std::uint64_t seed,
                             const iw::workloads::MiniApp& bt,
                             const iw::workloads::MiniApp& sp) {
  std::vector<Item> items;
  auto next_seed = [&] { return derive_seed(seed, 0x200 + items.size()); };
  for (const auto* app : {&bt, &sp}) {
    for (omp::OmpMode mode : {omp::OmpMode::kLinux, omp::OmpMode::kRTK,
                              omp::OmpMode::kPIK, omp::OmpMode::kCCK}) {
      for (unsigned p : sh.omp_threads) {
        Item it;
        it.family = Family::kOmp;
        it.id = "omp/" + app->name + "/" + omp::mode_name(mode) + "/p" +
                std::to_string(p);
        it.app = app;
        it.mode = mode;
        it.threads = p;
        it.seed = next_seed();
        it.oracle_sample = p == sh.omp_threads.front();
        items.push_back(std::move(it));
      }
    }
  }
  for (double us : {100.0, 20.0}) {
    for (TpalStackKind k : {TpalStackKind::kNautilus, TpalStackKind::kLinuxRelay,
                            TpalStackKind::kLinuxPerThread}) {
      Item it;
      it.family = Family::kTpal;
      it.stack = k;
      it.heart_us = us;
      it.id = std::string("tpal/") +
              (k == TpalStackKind::kNautilus     ? "nautilus"
               : k == TpalStackKind::kLinuxRelay ? "linux-relay"
                                                 : "linux-per-thread") +
              "/" + std::to_string(static_cast<int>(us)) + "us";
      it.seed = next_seed();
      it.oracle_sample = us == 100.0;
      items.push_back(std::move(it));
    }
  }
  Item it;
  it.family = Family::kComposed;
  it.id = "composed/" + std::to_string(sh.composed_cores) + "c";
  it.seed = next_seed();
  it.oracle_sample = true;
  items.push_back(std::move(it));
  return items;
}

/// Items run between two host-reference samples (a sample costs about
/// as much as a small item).
constexpr std::size_t kItemsPerRefSample = 4;
/// How many times more steeply the items slow down than the host
/// reference when the host slows down: the slope of log(item rate)
/// against log(host factor) across runs on a shared 4-vCPU VM was
/// 1.2-1.8 (r = -0.99), where parallel_4k's and scenario_sweep's
/// was 0.7-1.2 (see README.md).
constexpr double kHostSensitivity = 1.5;

struct PassOut {
  std::vector<double> item_ms;
  double wall_s{0.0};
  double sim_cycles{0.0};
  std::uint64_t events{0};
};

}  // namespace

int run_paper_stack(const Options& opt, Report& rep) {
  const Shape sh = shape(opt.toy);
  constexpr auto kFrontier = hwsim::SchedulerKind::kFrontier;
  HostRef ref;

  // Set-up: the inputs, and every machine stack the benchmark builds
  // itself, constructed without running (several times). The measured
  // items build their own machines again.
  iw::workloads::MiniApp bt, sp;
  std::vector<Item> items;
  for (unsigned i = 0; i < sh.setups; ++i) {
    release_free_heap();
    ref.sample();
    const auto t0 = Clock::now();
    bt = iw::workloads::bt_mini(sh.omp_n, sh.omp_timesteps);
    sp = iw::workloads::sp_mini(sh.omp_n, sh.omp_timesteps);
    items = make_items(sh, opt.seed, bt, sp);
    for (const Item& it : items) {
      if (it.family == Family::kTpal) {
        (void)build_tpal(it, sh.tpal_cpus, kFrontier, {});
      } else if (it.family == Family::kComposed) {
        (void)build_composed(it, sh, kFrontier, {});
      }
    }
    ref.add_setup(seconds_since(t0));
  }

  auto run_pass = [&](PassOut& p, std::vector<ItemOut>* outs) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i % kItemsPerRefSample == 0) ref.sample();
      const auto t0 = Clock::now();
      ItemOut o = run_item(items[i], sh, kFrontier);
      const double dt = seconds_since(t0);
      ref.charge(dt);
      p.item_ms.push_back(dt * 1e3);
      p.wall_s += dt;
      p.sim_cycles += o.sim_cycles;
      if (o.events != 0) {
        p.events += o.events;
        ref.charge(dt, HostRef::kEventItems);
      }
      if (!o.ok) {
        rep.fail(items[i].id, "machine limit");
      } else {
        rep.check(items[i].id, o.result);
      }
      if (outs != nullptr) outs->push_back(std::move(o));
    }
  };

  // Traced runs time one untraced pass first: the baseline of the trace
  // overhead.
  double untraced_s = 0.0;
  if (opt.trace) {
    spans::Pause pause;
    PassOut p;
    run_pass(p, nullptr);
    untraced_s = p.wall_s;
  }

  std::vector<PassOut> passes;
  std::vector<ItemOut> first;
  // Peak RSS is read after set-up and the first unit of work: later units
  // repeat the same work, so the figure does not depend on how many of
  // them fit in the run.
  double rss_mb = 0.0;
  const auto start = Clock::now();
  while (passes.empty() || seconds_since(start) < opt.seconds) {
    PassOut p;
    run_pass(p, passes.empty() ? &first : nullptr);
    passes.push_back(std::move(p));
    if (rss_mb == 0.0) rss_mb = peak_rss_mb();
    if (opt.trace) break;
  }

  // Oracle at seeds without pins: a sample of items on the linear-scan
  // scheduler must reproduce the frontier pass's results.
  if (!rep.pinned()) {
    spans::Pause pause;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!items[i].oracle_sample) continue;
      const ItemOut o =
          run_item(items[i], sh, hwsim::SchedulerKind::kLinearScan);
      rep.check("oracle." + items[i].id,
                o.ok ? o.result : std::string("machine limit"),
                &first[i].result);
    }
  }

  std::vector<double> item_ms;
  double wall_s = 0.0, sim_cycles = 0.0;
  std::uint64_t events = 0;
  for (const PassOut& p : passes) {
    item_ms.insert(item_ms.end(), p.item_ms.begin(), p.item_ms.end());
    wall_s += p.wall_s;
    sim_cycles += p.sim_cycles;
    events += p.events;
  }
  const double f = ref.factor();
  std::printf("paper_stack: %zu items x %zu passes in %.2f s; item latency "
              "p50 %.3f ms, p99 %.3f ms; host factor %.4f\n",
              items.size(), passes.size(), wall_s, percentile(item_ms, 50),
              percentile(item_ms, 99), f);
  if (!opt.trace) {
    rep.metric("events_per_s",
               static_cast<double>(events) /
                   ref.corrected_s(HostRef::kEventItems, kHostSensitivity),
               "1/s");
    rep.metric("sim_cycles_per_s",
               sim_cycles / ref.corrected_s(HostRef::kAll, kHostSensitivity),
               "1/s");
    rep.metric("setup_s", ref.setup_s(), "s");
    rep.metric("peak_rss_mb", rss_mb, "MB");
    return 0;
  }

  // Traced run: per-layer split of the traced pass, then the TPAL and
  // composed items again with a TraceRecorder and MetricsRegistry
  // attached (results must not change: recording is free in virtual
  // time) against the same items without.
  const auto tot = spans::totals();
  auto sum_s = [&](const char* n) {
    const auto it = tot.find(n);
    return it == tot.end() ? 0.0 : it->second.total_ns / 1e9;
  };
  auto mean_ms = [&](const char* n) {
    const auto it = tot.find(n);
    return it == tot.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ns / 1e6 /
                     static_cast<double>(it->second.count);
  };
  std::uint64_t syscalls = 0, promotions = 0, polls = 0, ctxsw = 0,
                accesses = 0, private_hits = 0, hw_events = 0;
  double tlb = 0.0, run_s = 0.0, step_s = 0.0, composed_run_s = 0.0;
  unsigned threaded = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const ItemOut& o = first[i];
    syscalls += o.syscalls;
    if (items[i].family == Family::kOmp && items[i].mode != omp::OmpMode::kCCK) {
      tlb += o.tlb_miss_rate;
      ++threaded;
    }
    promotions += o.promotions;
    polls += o.polls;
    ctxsw += o.context_switches;
    accesses += o.accesses;
    private_hits += o.private_hits;
    hw_events += o.events;
    run_s += o.run_s;
    step_s += o.step_s;
    if (items[i].family == Family::kComposed) composed_run_s += o.run_s;
  }

  double bare_s = 0.0, recorded_s = 0.0;
  {
  spans::Pause pause;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].family == Family::kOmp) continue;
    auto t0 = Clock::now();
    (void)run_item(items[i], sh, kFrontier);
    bare_s += seconds_since(t0);
    iw::obs::TraceRecorder tracer;
    iw::obs::MetricsRegistry metrics;
    t0 = Clock::now();
    const ItemOut o = run_item(items[i], sh, kFrontier, {&tracer, &metrics});
    recorded_s += seconds_since(t0);
    rep.check("recorded." + items[i].id, o.result, &first[i].result);
  }
  }

  rep.metric("hwsim.ns_per_event", run_s * 1e9 / static_cast<double>(hw_events),
             "ns");
  rep.metric("hwsim.events", static_cast<double>(hw_events), "count");
  rep.metric("hwsim.build_ms", mean_ms("hwsim.build"), "ms");
  rep.metric("omp.linux_s", sum_s("omp.run_miniapp.linux"), "s");
  rep.metric("omp.kernel_s", sum_s("omp.run_miniapp.kernel"), "s");
  rep.metric("linuxmodel.syscalls", static_cast<double>(syscalls), "count");
  rep.metric("mem.tlb_miss_rate", threaded ? tlb / threaded : 0.0,
             "fraction");
  rep.metric("heartbeat.tpal_s", sum_s("heartbeat.tpal.run"), "s");
  rep.metric("heartbeat.tpal.promotions_per_poll",
             polls ? static_cast<double>(promotions) / polls : 0.0, "ratio");
  rep.metric("nautilus.context_switches", static_cast<double>(ctxsw), "count");
  rep.metric("coherence.composed_s", sum_s("coherence.composed.run"), "s");
  rep.metric("coherence.step_share",
             composed_run_s > 0.0 ? step_s / composed_run_s : 0.0,
             "fraction");
  rep.metric("coherence.private_hit_frac",
             accesses ? static_cast<double>(private_hits) / accesses : 0.0,
             "fraction");
  rep.metric("obs.record_overhead_pct", (recorded_s / bare_s - 1.0) * 100.0,
             "%");
  rep.metric("bench.trace_overhead_pct",
             (passes.front().wall_s / untraced_s - 1.0) * 100.0, "%");
  return 0;
}

}  // namespace pb
