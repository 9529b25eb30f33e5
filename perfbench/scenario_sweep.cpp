// scenario_sweep: 1080 fault cells — IPI drop x delay x dup x 24 fault
// seeds — on the 8-core heartbeat-supervised spin machine of
// tools/replay_workload.hpp. One donor image is warmed for 2000
// heartbeat periods; every cell hydrates from it and runs 40 periods
// through ScenarioServer with one worker. This is the sweep users run:
// the sequential frontier loop under fault injection and heartbeat
// degradation does nearly all the work.
//
// Cells run in chunks of 40 per ScenarioServer::run call, each chunk a
// stratified sample of the sweep. A cell's latency is the wall time
// between consecutive cell completions, so it covers everything the
// server does for the cell. Sweeps repeat until --seconds pass; every
// cell's state digest is checked on every pass.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "bench.hpp"
#include "heartbeat/delivery.hpp"
#include "hwsim/machine.hpp"
#include "hwsim/snapshot.hpp"
#include "replay_workload.hpp"
#include "scenarioserver/server.hpp"

namespace pb {
namespace {

using iw::Cycles;
namespace hwsim = iw::hwsim;
namespace ss = iw::scenarioserver;

struct Shape {
  unsigned warm_periods;
  unsigned cell_periods;
  std::vector<double> drops;
  std::vector<Cycles> delays;
  std::vector<double> dups;
  unsigned fault_seeds;
  unsigned setups;
};

Shape shape(bool toy) {
  if (toy) return {200, 10, {0.0, 0.2}, {0, 14'000}, {0.0, 0.1}, 3, 2};
  return {2000,
          40,
          {0.0, 0.01, 0.05, 0.10, 0.20},
          {0, 7'000, 14'000},
          {0.0, 0.05, 0.10},
          24,
          9};
}

constexpr unsigned kCores = 8;
constexpr std::size_t kChunk = 40;
/// At seeds without pins, one cell in this many is re-run on linear scan.
constexpr std::size_t kOracleEvery = 27;

/// The donor's state at capture: the image every cell hydrates, plus the
/// counters a cell's own work is measured against (they are restored
/// from the image, so a cell's totals include the warm-up).
struct Donor {
  std::vector<std::uint64_t> image;
  std::uint64_t digest{0};
  std::uint64_t advances{0};
  Cycles clocks{0};
  std::uint64_t delivered{0};
  std::uint64_t polled{0};
  double serialize_ms{0.0};
};

std::uint64_t delivered_sum(const iw::heartbeat::NautilusHeartbeat& hb,
                            unsigned cores) {
  std::uint64_t n = 0;
  for (unsigned c = 0; c < cores; ++c) n += hb.state(c).delivered;
  return n;
}

Cycles clock_sum(hwsim::Machine& m) {
  Cycles n = 0;
  for (unsigned c = 0; c < m.num_cores(); ++c) n += m.core(c).clock();
  return n;
}

std::optional<Donor> make_donor(hwsim::MachineConfig mc, Cycles period,
                                Cycles warm, hwsim::SchedulerKind sched) {
  mc.scheduler = sched;
  hwsim::Machine m(mc);
  iw::tools::ReplayWorkload w(m, period, /*fault_tolerant=*/true);
  if (!m.run_until(warm)) return std::nullopt;
  Donor d;
  const hwsim::Snapshot snap = m.snapshot();
  const auto t0 = Clock::now();
  d.image = snap.serialize();
  d.serialize_ms = seconds_since(t0) * 1e3;
  d.digest = snap.digest();
  d.advances = m.total_advances();
  d.clocks = clock_sum(m);
  d.delivered = delivered_sum(w.heartbeat(), kCores);
  d.polled = w.heartbeat().polled_beats();
  return d;
}

/// What a cell leaves behind besides its digest.
struct CellRecord {
  double ms{0.0};
  std::uint64_t events{0};
  Cycles cycles{0};
  hwsim::FaultInjector::Counters faults;
  bool degraded{false};
  std::uint64_t polled{0};
  std::uint64_t delivered{0};
};

/// Per-worker cell log: each server worker thread appends only to its
/// own, and `mark` is that worker's previous cell completion.
struct CellLog {
  std::vector<CellRecord> cells;
  Clock::time_point mark;
};
thread_local CellLog t_log;

class CellHarness final : public ss::ScenarioHarness {
 public:
  CellHarness(hwsim::Machine& m, Cycles period, const Donor& donor)
      : span_("scenario.cell"), m_(m), w_(m, period, true), donor_(donor) {}

  void collect(std::vector<std::pair<std::string, double>>&) override {
    const auto t = Clock::now();
    CellRecord r;
    r.ms = std::chrono::duration<double, std::milli>(t - t_log.mark).count();
    r.events = m_.total_advances() - donor_.advances;
    r.cycles = clock_sum(m_) - donor_.clocks;
    r.faults = m_.fault_injector().counters();
    const auto& hb = w_.heartbeat();
    r.degraded = hb.degraded_entries() > 0;
    r.polled = hb.polled_beats() - donor_.polled;
    r.delivered = delivered_sum(hb, kCores) - donor_.delivered;
    t_log.cells.push_back(r);
    t_log.mark = Clock::now();
  }

 private:
  spans::Scope span_;
  hwsim::Machine& m_;
  iw::tools::ReplayWorkload w_;
  const Donor& donor_;
};

std::vector<ss::ScenarioSpec> make_specs(const Shape& sh, std::uint64_t seed,
                                         Cycles horizon) {
  std::vector<std::uint64_t> fault_seeds(sh.fault_seeds);
  for (unsigned i = 0; i < sh.fault_seeds; ++i) {
    fault_seeds[i] = derive_seed(seed, 0x100 + i);
  }
  std::vector<ss::ScenarioSpec> specs;
  for (const double drop : sh.drops) {
    for (const Cycles delay : sh.delays) {
      for (const double dup : sh.dups) {
        for (const std::uint64_t fs : fault_seeds) {
          ss::ScenarioSpec s;
          s.id = specs.size();
          s.group = s.id;
          s.plan.enabled = drop > 0.0 || delay > 0 || dup > 0.0;
          s.plan.ipi_drop_rate = drop;
          s.plan.ipi_delay_rate = delay > 0 ? 0.25 : 0.0;
          s.plan.ipi_delay_max = delay;
          s.plan.ipi_dup_rate = dup;
          s.fault_seed = fs;
          s.horizon = horizon;
          specs.push_back(std::move(s));
        }
      }
    }
  }
  return specs;
}

struct Pass {
  double wall_s{0.0};  // inside ScenarioServer::run
  std::vector<std::uint64_t> digests;
  std::vector<CellRecord> cells;
  std::size_t arena_high_water{0};
};

/// One sweep through ScenarioServer, chunk by chunk, with a host-speed
/// sample before each. Chunk c holds the cells whose id is c modulo the
/// chunk count, so every chunk carries the same mix of fault rates.
Pass run_pass(const ss::ScenarioBatch& batch,
              const std::vector<ss::ScenarioSpec>& specs, HostRef& ref) {
  Pass p;
  p.digests.resize(specs.size());
  p.cells.resize(specs.size());
  const std::size_t chunks = (specs.size() + kChunk - 1) / kChunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<ss::ScenarioSpec> chunk;
    for (std::size_t i = c; i < specs.size(); i += chunks) {
      chunk.push_back(specs[i]);
    }
    ss::ScenarioServer server(ss::ScenarioServerConfig{1});
    ref.sample();
    t_log.cells.clear();
    const auto t0 = Clock::now();
    t_log.mark = t0;
    ss::ResultsStore rs = [&] {
      spans::Scope s("scenarioserver.run");
      return server.run(batch, std::move(chunk));
    }();
    const double dt = seconds_since(t0);
    ref.charge(dt);
    p.wall_s += dt;
    for (std::size_t j = 0; j < t_log.cells.size(); ++j) {
      p.cells[c + j * chunks] = t_log.cells[j];
    }
    for (const auto& e : rs.entries()) p.digests[e.id] = e.digest;
    p.arena_high_water =
        std::max(p.arena_high_water, server.arena_high_water());
  }
  return p;
}

/// The same cells driven call by call, outside the server, so a traced
/// run can time each hwsim layer the server calls.
std::vector<std::uint64_t> run_decomposed(
    const ss::ScenarioBatch& batch, const std::vector<ss::ScenarioSpec>& specs,
    Cycles period) {
  std::vector<std::uint64_t> digests(specs.size());
  for (std::size_t lo = 0; lo < specs.size(); lo += kChunk) {
    const std::size_t hi = std::min(specs.size(), lo + kChunk);
    const hwsim::Snapshot warm = [&] {
      spans::Scope s("hwsim.snapshot.deserialize");
      return hwsim::Snapshot::deserialize(batch.image);
    }();
    for (std::size_t i = lo; i < hi; ++i) {
      const ss::ScenarioSpec& spec = specs[i];
      spans::Scope cell("scenario.decomposed_cell", spec.id);
      std::optional<hwsim::Machine> m;
      {
        spans::Scope s("hwsim.build", spec.id);
        m.emplace(batch.base);
      }
      iw::tools::ReplayWorkload w(*m, period, true);
      {
        spans::Scope s("hwsim.snapshot.restore", spec.id);
        m->restore(warm);
      }
      {
        spans::Scope s("hwsim.fault.install", spec.id);
        m->install_fault_plan(spec.plan, spec.fault_seed);
      }
      {
        spans::Scope s("hwsim.run_until", spec.id);
        if (!m->run_until(spec.horizon)) return {};
      }
      spans::Scope s("hwsim.snapshot.digest", spec.id);
      digests[i] = m->snapshot().digest();
    }
  }
  return digests;
}

}  // namespace

int run_scenario_sweep(const Options& opt, Report& rep) {
  const Shape sh = shape(opt.toy);
  hwsim::MachineConfig base;
  base.num_cores = kCores;
  base.seed = derive_seed(opt.seed, 1);
  base.max_advances = 4'000'000'000ULL;
  const Cycles period = base.costs.freq.us_to_cycles(20.0);
  const Cycles warm = sh.warm_periods * period;
  const Cycles horizon = warm + sh.cell_periods * period;
  HostRef ref;

  // Set-up: donor build, warm-up, capture and serialize, several times.
  std::optional<Donor> donor;
  std::vector<double> serialize_ms;
  for (unsigned i = 0; i < sh.setups; ++i) {
    donor.reset();
    release_free_heap();
    ref.sample();
    const auto t0 = Clock::now();
    donor = make_donor(base, period, warm, hwsim::SchedulerKind::kFrontier);
    if (!donor) {
      rep.fail("donor", "machine limit during warm-up");
      return 0;
    }
    ref.add_setup(seconds_since(t0));
    serialize_ms.push_back(donor->serialize_ms);
  }

  ss::ScenarioBatch batch;
  batch.base = base;
  batch.image = donor->image;
  const Donor& d = *donor;
  batch.factory = [period, &d](hwsim::Machine& m) {
    return std::make_unique<CellHarness>(m, period, d);
  };
  const std::vector<ss::ScenarioSpec> specs =
      make_specs(sh, opt.seed, horizon);

  auto check_pass = [&](const Pass& p) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      rep.check("cell/" + std::to_string(i), hex(p.digests[i]));
    }
  };

  // Traced runs time one untraced pass first: the baseline of the trace
  // overhead.
  double untraced_s = 0.0;
  if (opt.trace) {
    spans::Pause pause;
    const Pass p = run_pass(batch, specs, ref);
    check_pass(p);
    untraced_s = p.wall_s;
  }

  // Only the first pass is kept whole: the oracle and the traced metrics
  // read it, and memory stays independent of how many passes fit.
  std::optional<Pass> first;
  std::vector<double> cell_ms;
  std::uint64_t events = 0;
  Cycles cycles = 0;
  unsigned passes = 0;
  double wall_s = 0.0;
  std::size_t cells = 0;
  // Peak RSS is read after set-up and the first unit of work: later units
  // repeat the same work, so the figure does not depend on how many of
  // them fit in the run.
  double rss_mb = 0.0;
  const auto start = Clock::now();
  while (passes == 0 || seconds_since(start) < opt.seconds) {
    Pass p = run_pass(batch, specs, ref);
    check_pass(p);
    ++passes;
    wall_s += p.wall_s;
    cells += p.cells.size();
    for (const CellRecord& c : p.cells) {
      cell_ms.push_back(c.ms);
      events += c.events;
      cycles += c.cycles;
    }
    if (!first) first = std::move(p);
    if (rss_mb == 0.0) rss_mb = peak_rss_mb();
    if (opt.trace) break;
  }

  // Oracle at seeds without pins: the donor warmed on the linear-scan
  // scheduler must digest equal, and a sample of cells hydrated into
  // linear-scan machines must match the frontier pass.
  if (!rep.pinned()) {
    spans::Pause pause;
    const auto lin =
        make_donor(base, period, warm, hwsim::SchedulerKind::kLinearScan);
    const std::string want = hex(d.digest);
    rep.check("oracle.donor", lin ? hex(lin->digest) : "machine limit",
              &want);
    std::vector<ss::ScenarioSpec> sample;
    for (std::size_t i = 0; i < specs.size(); i += kOracleEvery) {
      sample.push_back(specs[i]);
      sample.back().scheduler = hwsim::SchedulerKind::kLinearScan;
    }
    ss::ScenarioServer server(ss::ScenarioServerConfig{1});
    const ss::ResultsStore rs = server.run(batch, sample);
    for (const auto& e : rs.entries()) {
      const std::string want = hex(first->digests[e.id]);
      rep.check("oracle.cell/" + std::to_string(e.id), hex(e.digest), &want);
    }
  }

  std::uint64_t ev_min = UINT64_MAX, ev_max = 0;
  for (const CellRecord& c : first->cells) {
    ev_min = std::min(ev_min, c.events);
    ev_max = std::max(ev_max, c.events);
  }
  std::printf("scenario_sweep: %zu cells x %u passes in %.2f s, %.1f "
              "scenarios/s, cell latency p50 %.3f ms, p99 %.3f ms; donor "
              "events %llu, cell events "
              "min %llu max %llu; host factor %.4f\n",
              specs.size(), passes, wall_s,
              static_cast<double>(cells) / wall_s, percentile(cell_ms, 50),
              percentile(cell_ms, 99),
              static_cast<unsigned long long>(d.advances),
              static_cast<unsigned long long>(ev_min),
              static_cast<unsigned long long>(ev_max), ref.factor());

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

  // Traced run: one traced server pass (spans per chunk and per cell),
  // then the same cells decomposed call by call.
  const double traced_s = first->wall_s;
  const std::vector<std::uint64_t> dec = run_decomposed(batch, specs, period);
  const auto tot = spans::totals();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string want = hex(first->digests[i]);
    rep.check("decomposed/" + std::to_string(i),
              dec.empty() ? "machine limit" : hex(dec[i]), &want);
  }
  auto sum_ms = [&](const char* n) {
    const auto it = tot.find(n);
    return it == tot.end() ? 0.0 : it->second.total_ns / 1e6;
  };
  auto mean_ms = [&](const char* n) {
    const auto it = tot.find(n);
    return it == tot.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ns / 1e6 /
                     static_cast<double>(it->second.count);
  };
  const Pass& p = *first;
  const double n = static_cast<double>(p.cells.size());
  std::uint64_t cell_events = 0, dropped = 0, delayed = 0, duplicated = 0,
                degraded = 0, polled = 0, delivered = 0;
  for (const CellRecord& c : p.cells) {
    cell_events += c.events;
    dropped += c.faults.ipis_dropped;
    delayed += c.faults.ipis_delayed;
    duplicated += c.faults.ipis_duplicated;
    degraded += c.degraded ? 1 : 0;
    polled += c.polled;
    delivered += c.delivered;
  }
  rep.metric("hwsim.ns_per_event",
             sum_ms("hwsim.run_until") * 1e6 / static_cast<double>(cell_events),
             "ns");
  rep.metric("hwsim.events", static_cast<double>(cell_events) / n, "count");
  rep.metric("hwsim.build_ms", mean_ms("hwsim.build"), "ms");
  rep.metric("hwsim.snapshot.deserialize_ms",
             mean_ms("hwsim.snapshot.deserialize"), "ms");
  rep.metric("hwsim.snapshot.restore_ms", mean_ms("hwsim.snapshot.restore"),
             "ms");
  rep.metric("hwsim.snapshot.digest_ms", mean_ms("hwsim.snapshot.digest"),
             "ms");
  rep.metric("hwsim.snapshot.image_words",
             static_cast<double>(batch.image.size()), "count");
  rep.metric("hwsim.snapshot.serialize_ms", median(serialize_ms), "ms");
  rep.metric("hwsim.fault.install_us", mean_ms("hwsim.fault.install") * 1e3,
             "us");
  rep.metric("hwsim.fault.ipis_dropped", static_cast<double>(dropped), "count");
  rep.metric("hwsim.fault.ipis_delayed", static_cast<double>(delayed), "count");
  rep.metric("hwsim.fault.ipis_duplicated", static_cast<double>(duplicated),
             "count");
  rep.metric("heartbeat.degraded_cells", static_cast<double>(degraded),
             "count");
  rep.metric("heartbeat.polled_beats", static_cast<double>(polled), "count");
  rep.metric("heartbeat.delivered_frac",
             static_cast<double>(delivered) /
                 (n * kCores * static_cast<double>(sh.cell_periods)),
             "fraction");
  // The cell spans are the server span's children, so its self time is
  // the server's own work around the cells.
  const auto server = tot.find("scenarioserver.run");
  rep.metric("scenarioserver.self_ms_per_cell",
             server == tot.end() ? 0.0 : server->second.self_ns / 1e6 / n,
             "ms");
  rep.metric("scenarioserver.arena_high_water",
             static_cast<double>(p.arena_high_water), "bytes");
  rep.metric("bench.trace_overhead_pct", (traced_s / untraced_s - 1.0) * 100.0,
             "%");

  // Whether the degraded high-drop cells form the latency tail: the
  // share of the slowest 1% of cells at each drop rate.
  std::vector<double> ms;
  for (const CellRecord& c : p.cells) ms.push_back(c.ms);
  const double p99 = percentile(ms, 99);
  const std::size_t per_drop = specs.size() / sh.drops.size();
  for (std::size_t k = 0; k < sh.drops.size(); ++k) {
    unsigned tail = 0;
    for (std::size_t i = k * per_drop; i < (k + 1) * per_drop; ++i) {
      tail += p.cells[i].ms >= p99 ? 1 : 0;
    }
    std::printf("  drop %.2f: %u of the slowest 1%% of cells\n", sh.drops[k],
                tail);
  }
  return 0;
}

}  // namespace pb
