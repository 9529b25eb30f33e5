#include "omp/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <tuple>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace iw::omp {

LinuxNoise::LinuxNoise(hwsim::Machine& m, double gap_us, double burst_us)
    : machine_(m), gap_us_(gap_us), burst_us_(burst_us) {
  rngs_.reserve(m.num_cores());
  for (unsigned c = 0; c < m.num_cores(); ++c) {
    rngs_.push_back(m.rng().split());
  }
  machine_.register_snapshot_participant(this);
  sink_id_ = machine_.register_event_sink(this);
  for (unsigned c = 0; c < m.num_cores(); ++c) post_next(m.core(c), 0);
}

LinuxNoise::~LinuxNoise() {
  machine_.unregister_event_sink(sink_id_);
  machine_.unregister_snapshot_participant(this);
}

void LinuxNoise::post_next(hwsim::Core& core, Cycles from) {
  const Cycles gap = machine_.costs().freq.us_to_cycles(
      rngs_[core.id()].lognormal_median(gap_us_, kGapSigma));
  core.post_event(from + gap, sink_id_);
}

void LinuxNoise::on_core_event(hwsim::Core& core, Cycles at,
                               const hwsim::EventPayload&) {
  core.consume(machine_.costs().freq.us_to_cycles(
      rngs_[core.id()].lognormal_median(burst_us_, kBurstSigma)));
  post_next(core, at);
}

void LinuxNoise::save_state(hwsim::SnapshotWriter& w) const {
  for (const Rng& rng : rngs_) hwsim::save_rng(w, rng);
}

void LinuxNoise::restore_state(hwsim::SnapshotReader& r) {
  for (Rng& rng : rngs_) hwsim::restore_rng(r, rng);
}

const char* mode_name(OmpMode m) {
  switch (m) {
    case OmpMode::kLinux: return "Linux";
    case OmpMode::kRTK: return "RTK";
    case OmpMode::kPIK: return "PIK";
    case OmpMode::kCCK: return "CCK";
  }
  return "?";
}

namespace {

/// Flattened phase list (timesteps x phases).
std::vector<const workloads::ParallelPhase*> flatten(
    const workloads::MiniApp& app) {
  std::vector<const workloads::ParallelPhase*> out;
  out.reserve(app.phases.size() * app.timesteps);
  for (unsigned t = 0; t < app.timesteps; ++t) {
    for (const auto& p : app.phases) out.push_back(&p);
  }
  return out;
}

/// Static chunk of `iters` for worker `w` of `P`.
std::pair<std::uint64_t, std::uint64_t> static_chunk(std::uint64_t iters,
                                                     unsigned w, unsigned P) {
  const std::uint64_t per = iters / P;
  const std::uint64_t extra = iters % P;
  const std::uint64_t lo = per * w + std::min<std::uint64_t>(w, extra);
  const std::uint64_t hi = lo + per + (w < extra ? 1 : 0);
  return {lo, hi};
}

struct WorkerState {
  enum class S { kStartPhase, kWork, kSpinWait, kResumed, kDone };
  S s{S::kStartPhase};
  std::size_t phase{0};
  std::uint64_t next_iter{0};
  std::uint64_t end_iter{0};
  std::uint64_t barrier_gen{0};
  Cycles barrier_enter{0};
  /// Last blind poll the previous kSpinWait step covered (kNever if it
  /// polled only at its own pick, or was the arrival).
  Cycles last_poll{kNever};
  Addr mem_cursor{0};
  Cycles done_at{0};
};

/// schedule(dynamic) chunk dispenser: a shared cursor behind a lock
/// whose serialization is modeled by a timeline, like a real libomp
/// dynamic-for descriptor.
struct DynamicDispenser {
  std::uint64_t next{0};
  std::uint64_t total{0};
  Cycles lock_free_at{0};
  Cycles op_cost{60};

  void reset(std::uint64_t iters) { next = 0; total = iters; }
  /// Grab up to `chunk` iterations at time `now`:
  /// {first, count, cycles_spent}.
  std::tuple<std::uint64_t, std::uint64_t, Cycles> grab(
      Cycles now, std::uint64_t chunk) {
    const Cycles start = std::max(now, lock_free_at);
    const Cycles done = start + op_cost;
    lock_free_at = done;
    const Cycles spent = done - now;
    const std::uint64_t first = next;
    const std::uint64_t count = std::min(chunk, total - next);
    next += count;
    return {first, count, spent};
  }
};

/// Shared experiment state for the thread-based modes.
struct ThreadedRun {
  const workloads::MiniApp* app;
  OmpConfig cfg;
  std::vector<const workloads::ParallelPhase*> phases;
  std::vector<WorkerState> workers;
  std::vector<std::unique_ptr<mem::PagingPolicy>> paging;  // per core
  std::unique_ptr<SpinBarrier> spin_barrier;
  std::unique_ptr<FutexBarrier> futex_barrier;
  DynamicDispenser dispenser;
  std::size_t dispenser_phase{SIZE_MAX};
  std::uint64_t barriers_passed{0};

  [[nodiscard]] bool all_done() const {
    return std::all_of(workers.begin(), workers.end(), [](const auto& w) {
      return w.s == WorkerState::S::kDone;
    });
  }
};

/// Charge the memory-translation cost for `iters` iterations of `phase`
/// against the worker's per-core paging policy.
Cycles translation_cost(ThreadedRun& run, unsigned wid,
                        const workloads::ParallelPhase& phase,
                        std::uint64_t iters) {
  auto& paging = *run.paging[wid];
  auto& ws = run.workers[wid];
  Cycles c = 0;
  const Addr jitter = static_cast<Addr>(wid) * 64;
  const std::uint64_t footprint = run.app->footprint_bytes;
  if (phase.pages_per_iter == 0) {
    // Sequential sweep: only page crossings can miss; touch once per
    // crossed page (hits inside a page are free in this TLB model).
    const std::uint64_t bytes = iters * phase.bytes_per_iter;
    Addr from = ws.mem_cursor;
    ws.mem_cursor = (ws.mem_cursor + bytes) % std::max<Addr>(footprint, 1);
    for (Addr a = from & ~Addr{4095}; a < from + bytes; a += 4096) {
      c += paging.touch(jitter + (a % std::max<Addr>(footprint, 1)));
    }
    return c;
  }
  // Strided plane accesses: each iteration touches pages_per_iter
  // far-apart pages of the shared grid (deterministic golden-ratio walk).
  for (std::uint64_t i = 0; i < iters; ++i) {
    for (unsigned k = 0; k < phase.pages_per_iter; ++k) {
      ws.mem_cursor =
          (ws.mem_cursor * 2654435761u + 4096 * (k + 1) + 12345) %
          std::max<Addr>(footprint, 1);
      c += paging.touch(jitter + ws.mem_cursor);
    }
  }
  return c;
}

/// Run the next `iters` iterations of the worker's phase: their compute
/// and translation cycles.
Cycles run_iters(ThreadedRun& run, unsigned wid, std::uint64_t iters) {
  WorkerState& ws = run.workers[wid];
  const auto& phase = *run.phases[ws.phase];
  ws.next_iter += iters;
  return iters * phase.cycles_per_iter +
         translation_cost(run, wid, phase, iters);
}

/// schedule(static) worksharing in one step, for a worker on `core`
/// whose next chunk does not finish its range: that chunk, and each
/// later chunk that does not finish the range either and starts before
/// the core's next deliverable event (a noise burst or a tick, read
/// once), which a step boundary would take first. Each chunk is charged
/// max(c, 1), as its own step would be. The chunk that finishes the
/// range runs in its own step with the barrier arrival. The chunks touch
/// only the worker's state, its paging policy and its core's clock
/// (DESIGN.md, "Worksharing chunks").
Cycles static_chunks(ThreadedRun& run, unsigned wid, hwsim::Core& core) {
  const WorkerState& ws = run.workers[wid];
  const std::uint64_t chunk = run.cfg.iter_chunk;
  const Cycles due = core.earliest_deliverable();
  const Cycles s = core.clock();
  Cycles charge = 0;
  do {
    charge += std::max<Cycles>(run_iters(run, wid, chunk), 1);
  } while (ws.end_iter - ws.next_iter > chunk && s + charge < due);
  return charge;
}

/// Polls the spinner `ws` on `core` performs in one step once the poll
/// at its clock s read "not passed": s and every later s + 40 i that
/// starts before
///  (a) the clock of every worker not yet arrived at this generation:
///      the flip happens inside such a worker's step, which starts at
///      or after its clock;
///  (b) the spinner core's next deliverable event (a noise burst or a
///      tick), which a step boundary would take first;
///  (c) the first poll an armed barrier_timeout panics at.
/// Each such poll precedes the flip under every sequential pick order,
/// so it reads "not passed" there too (DESIGN.md, "OpenMP spin waits").
std::uint64_t blind_polls(const ThreadedRun& run, const WorkerState& ws,
                          hwsim::Core& core) {
  using S = WorkerState::S;
  hwsim::Machine& m = core.machine();
  Cycles flip_floor = kNever;
  for (unsigned w = 0; w < run.workers.size(); ++w) {
    const WorkerState& o = run.workers[w];
    // Arrived: spinning on this generation, or done. A worker still
    // spinning on an older generation that has flipped has not.
    if (o.s == S::kDone ||
        (o.s == S::kSpinWait && o.barrier_gen == ws.barrier_gen)) {
      continue;
    }
    flip_floor = std::min(flip_floor, m.core(w).clock());
  }
  IW_ASSERT_MSG(flip_floor != kNever,
                "omp spin wait with every worker arrived");
  const Cycles bound =
      std::min({flip_floor, core.earliest_deliverable(),
                run.spin_barrier->timeout_poll(ws.barrier_enter)});
  const Cycles s = core.clock();
  if (bound <= s) return 1;
  return 1 + (bound - 1 - s) / SpinBarrier::spin_cost();
}

nautilus::StepResult worker_step(ThreadedRun& run, unsigned wid,
                                 nautilus::ThreadContext& ctx) {
  using S = WorkerState::S;
  WorkerState& ws = run.workers[wid];
  Cycles charge = 0;

  switch (ws.s) {
    case S::kStartPhase: {
      if (ws.phase >= run.phases.size()) {
        ws.s = S::kDone;
        ws.done_at = ctx.core.clock();
        return nautilus::StepResult::done(1);
      }
      const auto& phase = *run.phases[ws.phase];
      if (run.cfg.dynamic_chunk == 0) {
        const auto [lo, hi] =
            static_chunk(phase.iters, wid, run.cfg.num_threads);
        ws.next_iter = lo;
        ws.end_iter = hi;
      } else {
        // schedule(dynamic): reset the dispenser once per phase (the
        // first worker to arrive does it; barrier semantics make this
        // race-free in the DES).
        if (run.dispenser_phase != ws.phase) {
          run.dispenser.reset(phase.iters);
          run.dispenser_phase = ws.phase;
        }
        ws.next_iter = 0;
        ws.end_iter = 0;  // chunks grabbed lazily in kWork
      }
      charge += 120;  // fork-point scheduling (chunk computation)
      if (run.cfg.mode == OmpMode::kLinux && wid == 0 && ws.phase > 0) {
        // Region-start wake chain: between regions some libomp workers
        // park in futexes (past the active-spin window); the master
        // serially wakes them. Kernel-level runtimes never park.
        const auto parked = static_cast<Cycles>(
            (run.cfg.num_threads - 1) * run.cfg.linux_park_fraction);
        charge += parked * run.cfg.linux_region_wake_cost;
      }
      if (run.cfg.mode == OmpMode::kPIK && wid == 0) {
        // Residual hoisted-guard work for this phase's region.
        charge += run.cfg.pik_phase_guard_cost;
      }
      ws.s = S::kWork;
      return nautilus::StepResult::cont(charge);
    }
    case S::kWork: {
      bool phase_exhausted = false;
      if (run.cfg.dynamic_chunk == 0) {
        if (ws.end_iter - ws.next_iter > run.cfg.iter_chunk) {
          return nautilus::StepResult::cont(
              static_chunks(run, wid, ctx.core));
        }
      } else if (ws.next_iter >= ws.end_iter) {
        // schedule(dynamic): one grab per step, since the dispenser is
        // shared and the grab order is the pick order.
        const auto [first, count, spent] = run.dispenser.grab(
            ctx.core.clock() + charge, run.cfg.dynamic_chunk);
        charge += spent;
        if (count > 0) {
          ws.next_iter = first;
          ws.end_iter = first + count;
        } else {
          phase_exhausted = true;  // dispenser empty: head to the barrier
        }
      }
      const std::uint64_t todo = std::min<std::uint64_t>(
          run.cfg.iter_chunk, ws.end_iter - ws.next_iter);
      if (todo > 0) charge += run_iters(run, wid, todo);
      if (run.cfg.dynamic_chunk != 0 && !phase_exhausted) {
        // Dynamic: the chunk goes on, or the next grab comes, next step.
        return nautilus::StepResult::cont(std::max<Cycles>(charge, 1));
      }
      // Range complete: barrier. Wait times (arrival -> release) feed
      // the omp.barrier.wait histogram when metrics are attached.
      if (run.cfg.mode == OmpMode::kLinux && run.cfg.linux_passive_wait) {
        const Cycles before = ctx.core.clock();
        const auto arrival = run.futex_barrier->arrive(ctx.core, charge);
        if (arrival.last) {
          // The last arriver's "wait" is the serial wake chain it pays.
          if (run.cfg.metrics != nullptr) {
            run.cfg.metrics->record(obs::names::kOmpBarrierWait,
                                    ctx.core.clock() - before);
          }
          ++run.barriers_passed;
          ++ws.phase;
          ws.s = S::kStartPhase;
          return nautilus::StepResult::cont(std::max<Cycles>(charge, 1));
        }
        ws.barrier_enter = before;
        ws.s = S::kResumed;
        return arrival.block;
      }
      ws.barrier_enter = ctx.core.clock() + charge;
      ws.barrier_gen = run.spin_barrier->arrive(ctx.core);
      if (run.spin_barrier->passed(ws.barrier_gen)) {
        if (run.cfg.metrics != nullptr) {
          run.cfg.metrics->record(obs::names::kOmpBarrierWait, 0);
        }
        ++run.barriers_passed;
        ++ws.phase;
        ws.s = S::kStartPhase;
        return nautilus::StepResult::cont(std::max<Cycles>(charge, 1));
      }
      ws.s = S::kSpinWait;
      ws.last_poll = kNever;
      return nautilus::StepResult::cont(std::max<Cycles>(charge, 1));
    }
    case S::kSpinWait: {
      SpinBarrier& barrier = *run.spin_barrier;
      barrier.check_timeout(ctx.core, ws.barrier_enter);
      if (!barrier.passed(ws.barrier_gen)) {
        // The step's first poll ran at its own pick; the guard checks
        // only the blind polls after it.
        const Cycles poll = SpinBarrier::spin_cost();
        const std::uint64_t polls = blind_polls(run, ws, ctx.core);
        ws.last_poll =
            polls > 1 ? ctx.core.clock() + (polls - 1) * poll : kNever;
        return nautilus::StepResult::cont(polls * poll);
      }
      barrier.check_poll_order(ctx.core, ws.last_poll);
      if (run.cfg.metrics != nullptr) {
        const Cycles now = ctx.core.clock() + SpinBarrier::spin_cost();
        run.cfg.metrics->record(
            obs::names::kOmpBarrierWait,
            now > ws.barrier_enter ? now - ws.barrier_enter : 0);
      }
      ++ws.phase;
      ws.s = S::kStartPhase;
      return nautilus::StepResult::cont(SpinBarrier::spin_cost());
    }
    case S::kResumed: {
      // Woken from the futex barrier.
      if (run.cfg.metrics != nullptr) {
        const Cycles now = ctx.core.clock();
        run.cfg.metrics->record(
            obs::names::kOmpBarrierWait,
            now > ws.barrier_enter ? now - ws.barrier_enter : 0);
      }
      ++ws.phase;
      ws.s = S::kStartPhase;
      return nautilus::StepResult::cont(
          ctx.core.costs().atomic_rmw);  // re-check barrier word
    }
    case S::kDone:
      return nautilus::StepResult::done(1);
  }
  return nautilus::StepResult::done(1);
}

OmpResult run_threaded(const workloads::MiniApp& app, const OmpConfig& cfg) {
  hwsim::MachineConfig mc;
  mc.num_cores = cfg.num_threads;
  mc.costs = cfg.costs;
  mc.seed = cfg.seed;
  mc.max_advances = 4'000'000'000ULL;
  mc.scheduler = cfg.scheduler;
  hwsim::Machine m(mc);
  // Blind polls (blind_polls) assume no fault plan: a plan draws a
  // stall per step, and the batched polls would skip those draws.
  IW_ASSERT_MSG(!m.fault_injector().enabled(),
                "the OMP machine carries no fault plan");
  m.set_tracer(cfg.tracer);
  m.set_metrics(cfg.metrics);

  std::unique_ptr<linuxmodel::LinuxStack> lx;
  std::unique_ptr<nautilus::Kernel> nk;
  std::unique_ptr<linuxmodel::FutexTable> futex;
  nautilus::Kernel* k = nullptr;
  if (cfg.mode == OmpMode::kLinux) {
    auto lc = linuxmodel::LinuxCosts::knl();
    lc.tick_period = cfg.costs.freq.ghz >= 2.0 ? 3'300'000 : 1'400'000;
    lx = std::make_unique<linuxmodel::LinuxStack>(m, lc);
    futex = std::make_unique<linuxmodel::FutexTable>(*lx);
    k = &lx->kernel();
  } else {
    nk = std::make_unique<nautilus::Kernel>(m);
    k = nk.get();
  }
  k->attach();

  ThreadedRun run;
  run.app = &app;
  run.cfg = cfg;
  run.phases = flatten(app);
  run.workers.resize(cfg.num_threads);
  for (unsigned c = 0; c < cfg.num_threads; ++c) {
    if (cfg.mode == OmpMode::kLinux) {
      mem::DemandPaging::Config pc;
      pc.tlb_entries = 64;
      pc.walk_cost = cfg.costs.tlb_miss_walk;
      run.paging.push_back(std::make_unique<mem::DemandPaging>(pc));
    } else {
      run.paging.push_back(std::make_unique<mem::IdentityPaging>(
          32, 1ULL << 30, cfg.costs.tlb_miss_walk));
    }
    // Pre-fault the working set: NAS-style measurements report steady
    // state after warm-up timesteps, so one-time minor faults must not
    // ride the measured region (the TLB pressure itself persists). One
    // touch per 4 KiB below footprint + 4 KiB, as one sweep.
    run.paging.back()->touch_sweep(static_cast<Addr>(c) * 64,
                                   (app.footprint_bytes + 4096 + 4095) / 4096,
                                   4096);
  }
  if (cfg.mode == OmpMode::kLinux && cfg.linux_passive_wait) {
    run.futex_barrier =
        std::make_unique<FutexBarrier>(*futex, 0xBA221E2, cfg.num_threads);
  } else {
    run.spin_barrier = std::make_unique<SpinBarrier>(cfg.num_threads);
    run.spin_barrier->set_timeout(cfg.barrier_timeout);
  }
  std::unique_ptr<LinuxNoise> noise;
  if (cfg.mode == OmpMode::kLinux && cfg.noise_gap_us > 0.0) {
    noise = std::make_unique<LinuxNoise>(m, cfg.noise_gap_us,
                                         cfg.noise_burst_us);
  }

  for (unsigned wid = 0; wid < cfg.num_threads; ++wid) {
    nautilus::ThreadConfig tc;
    tc.name = std::string("omp-") + mode_name(cfg.mode) + "-w" +
              std::to_string(wid);
    tc.bound_core = wid;
    tc.uses_fp = true;
    tc.body = [&run, wid](nautilus::ThreadContext& ctx) {
      return worker_step(run, wid, ctx);
    };
    k->spawn(std::move(tc));
  }

  // Run until the workers complete (the noise chain never quiesces).
  const bool ok = m.run([&run] { return run.all_done(); });
  IW_ASSERT_MSG(ok, "OMP run hit the machine watchdog");

  OmpResult res;
  // Makespan = last worker completion (m.now() would include noise-chain
  // advances past the interesting region).
  for (const auto& w : run.workers) {
    res.makespan = std::max(res.makespan, w.done_at);
  }
  res.barriers_passed = run.barriers_passed;
  res.advances = m.total_advances();
  res.syscalls = lx ? lx->syscall_count() : 0;
  std::uint64_t hits = 0, misses = 0;
  for (const auto& p : run.paging) {
    hits += p->tlb().hits();
    misses += p->tlb().misses();
  }
  res.tlb_miss_rate = (hits + misses) ? static_cast<double>(misses) /
                                            static_cast<double>(hits + misses)
                                      : 0.0;
  return res;
}

OmpResult run_cck(const workloads::MiniApp& app, const OmpConfig& cfg) {
  hwsim::MachineConfig mc;
  mc.num_cores = cfg.num_threads;
  mc.costs = cfg.costs;
  mc.seed = cfg.seed;
  mc.max_advances = 4'000'000'000ULL;
  mc.scheduler = cfg.scheduler;
  hwsim::Machine m(mc);
  m.set_tracer(cfg.tracer);
  m.set_metrics(cfg.metrics);
  nautilus::Kernel k(m);
  k.attach();

  const auto phases = flatten(app);
  auto tasks_left = std::make_shared<std::uint64_t>(0);
  auto phase_idx = std::make_shared<std::size_t>(0);
  std::uint64_t total_tasks = 0;

  // Phase driver: decompose the current phase into tasks; the last task
  // to finish submits the next phase (pure task machine, no barriers).
  std::function<void()> submit_phase = [&]() {
    if (*phase_idx >= phases.size()) return;
    const auto& phase = *phases[*phase_idx];
    // The compiler sizes tasks for the machine: cap the chunk so every
    // core gets several tasks per phase (otherwise small phases would
    // serialize on one task queue).
    const std::uint64_t per_task = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(
               cfg.cck_task_iters,
               phase.iters / (4ULL * cfg.num_threads) + 1));
    const std::uint64_t n_tasks =
        std::max<std::uint64_t>(1, (phase.iters + per_task - 1) / per_task);
    *tasks_left = n_tasks;
    total_tasks += n_tasks;
    for (std::uint64_t t = 0; t < n_tasks; ++t) {
      const std::uint64_t iters =
          std::min<std::uint64_t>(per_task, phase.iters - t * per_task);
      const Cycles task_cycles = iters * phase.cycles_per_iter;
      nautilus::Task task;
      task.size_hint = task_cycles;
      task.fn = [&, task_cycles]() -> Cycles {
        if (--*tasks_left == 0) {
          ++*phase_idx;
          submit_phase();
        }
        return task_cycles;
      };
      k.submit_task(static_cast<CoreId>(t % cfg.num_threads),
                    std::move(task));
    }
  };
  submit_phase();
  const bool ok = m.run();
  IW_ASSERT_MSG(ok, "CCK run hit the machine watchdog");

  OmpResult res;
  res.makespan = m.now();
  res.tasks_executed = k.stats().tasks.executed;
  res.advances = m.total_advances();
  (void)total_tasks;
  return res;
}

}  // namespace

OmpResult run_miniapp(const workloads::MiniApp& app, const OmpConfig& cfg) {
  IW_ASSERT(cfg.num_threads >= 1);
  IW_ASSERT_MSG(cfg.iter_chunk >= 1,
                "OmpConfig::iter_chunk must be at least 1");
  IW_ASSERT_MSG(cfg.linux_park_fraction >= 0.0 &&
                    cfg.linux_park_fraction <= 1.0,
                "OmpConfig::linux_park_fraction must lie in [0, 1]");
  IW_ASSERT_MSG(!(cfg.noise_gap_us > 0.0) || cfg.noise_burst_us > 0.0,
                "OmpConfig::noise_burst_us must be positive while "
                "noise_gap_us is");
  // Each burst is posted one gap after the last one's due time while it
  // moves the clock on, so bursts longer than gaps on average keep an
  // event due forever.
  const auto lognormal_mean = [](double median, double sigma) {
    return median * std::exp(sigma * sigma / 2);
  };
  IW_ASSERT_MSG(
      !(cfg.noise_gap_us > 0.0) ||
          lognormal_mean(cfg.noise_burst_us, LinuxNoise::kBurstSigma) <
              lognormal_mean(cfg.noise_gap_us, LinuxNoise::kGapSigma),
      "OmpConfig::noise_burst_us's lognormal mean must stay below "
      "noise_gap_us's: the noise bursts would outrun the clock");
  hwsim::Machine::require_sequential(cfg.scheduler, "omp::run_miniapp");
  if (cfg.mode == OmpMode::kCCK) return run_cck(app, cfg);
  return run_threaded(app, cfg);
}

double relative_to_linux(const workloads::MiniApp& app, OmpMode mode,
                         unsigned threads, const OmpConfig& base) {
  OmpConfig cfg = base;
  cfg.num_threads = threads;
  cfg.mode = OmpMode::kLinux;
  const auto linux = run_miniapp(app, cfg);
  cfg.mode = mode;
  const auto other = run_miniapp(app, cfg);
  return static_cast<double>(linux.makespan) /
         static_cast<double>(other.makespan);
}

}  // namespace iw::omp
