// parallel_4k: a 4096-core machine on the epoch-parallel engine with
// per-core shards and 2 host threads. A LAPIC heartbeat on core 0
// broadcasts an IPI every 20 000 cycles; every core runs spin steps
// whose per-core cost comes from the seed. This is the regime of the
// open scaling question: the epoch engine, packed heaps and outbox lanes
// do nearly all the work, snapshots, faults and the upper stack none.
//
// One operation restores the warmed machine (untimed) and runs a fixed
// window of heartbeat periods in one run_until; its final state digest is
// the checked result. Operations repeat until --seconds pass.
#include <cstdio>
#include <memory>
#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "hwsim/lapic.hpp"
#include "hwsim/machine.hpp"
#include "hwsim/snapshot.hpp"

namespace pb {
namespace {

using iw::Cycles;
namespace hwsim = iw::hwsim;

constexpr Cycles kPeriod = 20'000;
constexpr unsigned kThreads = 2;
constexpr int kVector = 0x40;

struct Shape {
  unsigned cores;
  unsigned warm_periods;
  unsigned op_periods;
  unsigned setups;
};

Shape shape(bool toy) {
  return toy ? Shape{256, 4, 10, 2} : Shape{4096, 20, 50, 5};
}

/// Spin steps with a per-core cost drawn from the seed. Read-only after
/// construction, so every shard may share it.
class SeededSpin final : public hwsim::CoreDriver {
 public:
  explicit SeededSpin(std::vector<Cycles> cost) : cost_(std::move(cost)) {}
  bool runnable(hwsim::Core&) override { return true; }
  void step(hwsim::Core& core) override { core.consume(cost_[core.id()]); }

 private:
  std::vector<Cycles> cost_;
};

/// One cache line per core: handlers on different shards never share.
struct alignas(64) IrqCell {
  std::uint64_t v{0};
};

struct Workload {
  std::unique_ptr<hwsim::Machine> machine;
  std::unique_ptr<SeededSpin> driver;
  std::unique_ptr<hwsim::LapicTimer> timer;
  std::vector<IrqCell> irqs;

  [[nodiscard]] std::uint64_t total_irqs() const {
    std::uint64_t n = 0;
    for (const IrqCell& c : irqs) n += c.v;
    return n;
  }
  [[nodiscard]] Cycles total_clock() const {
    Cycles n = 0;
    for (unsigned c = 0; c < machine->num_cores(); ++c) {
      n += machine->core(c).clock();
    }
    return n;
  }
};

std::vector<Cycles> spin_costs(std::uint64_t seed, unsigned cores) {
  iw::Rng rng(derive_seed(seed, 0x4b));
  std::vector<Cycles> cost(cores);
  for (Cycles& c : cost) c = rng.uniform(150, 250);
  return cost;
}

/// Build the machine and workload; `build_s` receives the Machine
/// constructor's wall time.
std::unique_ptr<Workload> build(const std::vector<Cycles>& costs,
                                hwsim::SchedulerKind sched,
                                double* build_s) {
  auto w = std::make_unique<Workload>();
  hwsim::MachineConfig mc;
  mc.num_cores = static_cast<unsigned>(costs.size());
  mc.scheduler = sched;
  mc.shard_policy = hwsim::ShardPolicy::kPerCore;
  mc.threads = kThreads;
  {
    spans::Scope s("hwsim.build");
    const auto t0 = Clock::now();
    w->machine = std::make_unique<hwsim::Machine>(mc);
    if (build_s != nullptr) *build_s = seconds_since(t0);
  }
  w->driver = std::make_unique<SeededSpin>(costs);
  w->irqs.resize(mc.num_cores);
  IrqCell* cells = w->irqs.data();
  for (unsigned i = 0; i < mc.num_cores; ++i) {
    auto& core = w->machine->core(i);
    core.set_driver(w->driver.get());
    core.set_irq_handler(kVector, [cells](hwsim::Core& c, int) {
      c.consume(120);
      ++cells[c.id()].v;
      if (c.id() == 0) c.machine().broadcast_ipi(c, kVector);
    });
  }
  w->timer = std::make_unique<hwsim::LapicTimer>(w->machine->core(0), kVector);
  w->timer->periodic(kPeriod);
  return w;
}

std::string result_of(Workload& w, std::uint64_t irqs) {
  std::string digest;
  {
    spans::Scope s("hwsim.snapshot.digest");
    digest = hex(w.machine->snapshot().digest());
  }
  return "digest=" + digest + " irqs=" + std::to_string(irqs);
}

struct OpOut {
  std::string result;
  bool ok{true};
  double run_s{0.0};  // wall inside run_until
  std::uint64_t events{0};
  Cycles cycles{0};
};

/// Restore the warmed state and run `periods` heartbeat periods.
OpOut run_op(Workload& w, const hwsim::Snapshot& warm, Cycles from,
             unsigned periods) {
  OpOut o;
  {
    spans::Scope s("hwsim.snapshot.restore");
    w.machine->restore(warm);
  }
  const std::uint64_t adv0 = w.machine->total_advances();
  const std::uint64_t irq0 = w.total_irqs();
  const Cycles clk0 = w.total_clock();
  {
    spans::Scope s("hwsim.run_until");
    const auto t0 = Clock::now();
    o.ok = w.machine->run_until(from + periods * kPeriod);
    o.run_s = seconds_since(t0);
  }
  o.events = w.machine->total_advances() - adv0;
  o.cycles = w.total_clock() - clk0;
  o.result = result_of(w, w.total_irqs() - irq0);
  return o;
}

}  // namespace

int run_parallel_4k(const Options& opt, Report& rep) {
  const Shape sh = shape(opt.toy);
  const std::vector<Cycles> costs = spin_costs(opt.seed, sh.cores);
  HostRef ref;

  // Set-up: machine build plus warm-up to steady state, several times;
  // the last machine is the one measured.
  const Cycles warm_at = sh.warm_periods * kPeriod;
  std::unique_ptr<Workload> w;
  std::vector<double> build_ms;
  for (unsigned i = 0; i < sh.setups; ++i) {
    w.reset();
    release_free_heap();
    ref.sample();
    const auto t0 = Clock::now();
    double b = 0.0;
    w = build(costs, hwsim::SchedulerKind::kParallelEpoch, &b);
    if (!w->machine->run_until(warm_at)) {
      rep.fail("setup", "machine limit during warm-up");
      return 0;
    }
    ref.add_setup(seconds_since(t0));
    build_ms.push_back(b * 1e3);
  }
  const hwsim::Snapshot warm = w->machine->snapshot();

  // Traced runs time one untraced operation first: the baseline of the
  // trace overhead.
  double untraced_s = 0.0;
  if (opt.trace) {
    spans::Pause pause;
    untraced_s = run_op(*w, warm, warm_at, sh.op_periods).run_s;
  }

  std::uint64_t events = 0;
  Cycles cycles = 0;
  double run_s = 0.0;
  std::string first_result;
  const std::uint64_t allocs0 = w->machine->hot_path_allocs();
  const std::uint64_t steals0 = w->machine->parallel_steals();
  // Peak RSS is read after set-up and the first unit of work: later units
  // repeat the same work, so the figure does not depend on how many of
  // them fit in the run.
  double rss_mb = 0.0;
  const auto start = Clock::now();
  unsigned ops = 0;
  while (ops < 2 || seconds_since(start) < opt.seconds) {
    ref.sample();
    const OpOut o = run_op(*w, warm, warm_at, sh.op_periods);
    ++ops;
    if (!o.ok) {
      rep.fail("window", "machine limit");
      continue;
    }
    rep.check("window", o.result);
    if (first_result.empty()) first_result = o.result;
    if (rss_mb == 0.0) rss_mb = peak_rss_mb();
    events += o.events;
    cycles += o.cycles;
    run_s += o.run_s;
    ref.charge(o.run_s);
  }
  const std::uint64_t allocs = w->machine->hot_path_allocs() - allocs0;
  const std::uint64_t steals = w->machine->parallel_steals() - steals0;

  // Host-thread scaling on a fixed window: 2 threads vs 1.
  double speedup = 0.0;
  if (opt.trace) {
    spans::Pause pause;
    const unsigned win = sh.op_periods / 5;
    const double t2 = run_op(*w, warm, warm_at, win).run_s;
    w->machine->set_threads(1);
    const double t1 = run_op(*w, warm, warm_at, win).run_s;
    w->machine->set_threads(kThreads);
    speedup = t1 / t2;
  }

  // Oracle at seeds without pins: the same inputs on the sequential
  // frontier scheduler, untimed.
  if (!rep.pinned() && !first_result.empty()) {
    spans::Pause pause;
    w.reset();
    auto f = build(costs, hwsim::SchedulerKind::kFrontier, nullptr);
    std::string oracle = "machine limit";
    if (f->machine->run_until(warm_at)) {
      const std::uint64_t irq_warm = f->total_irqs();
      if (f->machine->run_until(warm_at + sh.op_periods * kPeriod)) {
        oracle = result_of(*f, f->total_irqs() - irq_warm);
      }
    }
    rep.check("oracle.frontier", first_result, &oracle);
  }

  const double f = ref.factor();
  std::printf("parallel_4k: %u cores, %u threads, %u windows x %u periods, "
              "%llu events in %.2f s; host factor %.4f\n",
              sh.cores, kThreads, ops, sh.op_periods,
              static_cast<unsigned long long>(events), run_s, f);
  if (!opt.trace) {
    const double corrected_s = ref.corrected_s();
    rep.metric("events_per_s", static_cast<double>(events) / corrected_s,
               "1/s");
    rep.metric("sim_cycles_per_s", static_cast<double>(cycles) / corrected_s,
               "1/s");
    rep.metric("setup_s", ref.setup_s(), "s");
    rep.metric("peak_rss_mb", rss_mb, "MB");
    return 0;
  }
  const auto tot = spans::totals();
  auto mean_ms = [&](const char* n) {
    const auto it = tot.find(n);
    return it == tot.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ns / 1e6 /
                     static_cast<double>(it->second.count);
  };
  const double run_ns = tot.count("hwsim.run_until") != 0
                            ? tot.at("hwsim.run_until").total_ns
                            : 0.0;
  const double mevents = static_cast<double>(events) / 1e6;
  rep.metric("hwsim.ns_per_event", run_ns / static_cast<double>(events), "ns");
  rep.metric("hwsim.events", static_cast<double>(events) / ops, "count");
  rep.metric("hwsim.allocs_per_mevent", static_cast<double>(allocs) / mevents,
             "1/Mevent");
  rep.metric("hwsim.parallel.steals_per_mevent",
             static_cast<double>(steals) / mevents, "1/Mevent");
  rep.metric("hwsim.parallel.speedup_vs_1t", speedup, "x");
  rep.metric("hwsim.build_ms", median(build_ms), "ms");
  rep.metric("hwsim.snapshot.restore_ms", mean_ms("hwsim.snapshot.restore"),
             "ms");
  rep.metric("hwsim.snapshot.digest_ms", mean_ms("hwsim.snapshot.digest"),
             "ms");
  rep.metric("bench.trace_overhead_pct",
             (run_s / ops / untraced_s - 1.0) * 100.0, "%");
  return 0;
}

}  // namespace pb
