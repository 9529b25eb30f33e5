#include "heartbeat/tpal.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace iw::heartbeat {

TpalRuntime::TpalRuntime(nautilus::Kernel& kernel, TpalConfig cfg,
                         HeartbeatBackend* backend)
    : kernel_(kernel), cfg_(cfg), backend_(backend) {
  IW_ASSERT(cfg.num_workers >= 1);
  IW_ASSERT(cfg.num_workers <= kernel.machine().num_cores());
  IW_ASSERT_MSG(cfg.chunk >= 1, "TPAL chunk must be at least one iteration");
  workers_.resize(cfg.num_workers);
}

nautilus::StepResult TpalRuntime::worker_step(
    unsigned wid, nautilus::ThreadContext& ctx) {
  Worker& w = workers_[wid];
  Cycles charge = 0;

  if (iters_done_ >= cfg_.total_iters) {
    w.done = true;
    return nautilus::StepResult::done(std::max<Cycles>(charge, 1));
  }

  // Acquire work: private range -> own deque -> steal.
  if (w.current.empty()) {
    if (auto r = w.deque.pop_bottom()) {
      w.current = *r;
    } else {
      // Steal attempt from a random victim.
      const unsigned victim =
          static_cast<unsigned>(steal_rng_.uniform(0, cfg_.num_workers - 1));
      charge += cfg_.steal_cost;
      w.overhead_cycles += cfg_.steal_cost;
      if (victim != wid) {
        if (auto r = workers_[victim].deque.steal_top()) {
          w.current = *r;
        }
      }
      if (w.current.empty()) {
        // Nothing to steal right now; spin (stay runnable).
        return nautilus::StepResult::cont(std::max<Cycles>(charge, 1));
      }
    }
  }

  // Execute one compiler-delimited chunk.
  const std::uint64_t todo =
      std::min<std::uint64_t>(cfg_.chunk, w.current.size());
  const Cycles work = todo * cfg_.cycles_per_iter;
  charge += work;
  w.work_cycles += work;
  w.current.lo += todo;
  iters_done_ += todo;

  // Compiler-inserted poll at the chunk boundary.
  charge += cfg_.poll_cost;
  w.overhead_cycles += cfg_.poll_cost;
  ++w.polls;
  // `charge` so far is exactly this step's work + the poll itself, so
  // clock+charge is the virtual time the poll completes.
  if (backend_ != nullptr &&
      backend_->poll(ctx.core.id(), ctx.core.clock() + charge)) {
    ++w.beats_handled;
    // Promote: publish latent parallelism at heartbeat rate.
    if (w.current.size() > cfg_.min_grain) {
      w.deque.push_bottom(w.current.split());
      charge += cfg_.promotion_cost;
      w.overhead_cycles += cfg_.promotion_cost;
      ++w.promotions;
    }
  }
  charge = std::max<Cycles>(charge, 1);
  return nautilus::StepResult::cont(
      charge + fold_chunks(w, ctx.core, ctx.core.clock() + charge));
}

Cycles TpalRuntime::fold_chunks(Worker& w, hwsim::Core& core,
                                Cycles start) {
  // Every chunk folded here leaves the range non-empty, so it cannot end
  // the run (only the chunk that empties a range can), and the next step
  // neither pops nor steals. Each starts before anything can be
  // delivered to this core, so its poll reads "no beat", as the poll
  // just made left it. Thieves see only the deque, which changes at a
  // promotion or a pop, never here.
  if (w.current.size() <= cfg_.chunk) return 0;
  const hwsim::Core::FoldLimit lim = core.fold_limit();
  Cycles before = lim.before;
  if (backend_ != nullptr) {
    before = std::min(before, backend_->send_bound(core.id()));
  }
  if (start >= before) return 0;
  // Each chunk's own step would charge its work and poll, at least 1.
  const Cycles per =
      std::max<Cycles>(cfg_.chunk * cfg_.cycles_per_iter + cfg_.poll_cost, 1);
  const std::uint64_t n =
      std::min({(w.current.size() - 1) / cfg_.chunk,
                1 + (before - 1 - start) / per, lim.steps});
  if (n == 0) return 0;
  const std::uint64_t iters = n * cfg_.chunk;
  w.current.lo += iters;
  iters_done_ += iters;
  w.work_cycles += iters * cfg_.cycles_per_iter;
  w.overhead_cycles += n * cfg_.poll_cost;
  w.polls += n;
  core.record_fold(n, start + (n - 1) * per);
  return n * per;
}

TpalResult TpalRuntime::run() {
  // Worker 0 owns the full range initially; TPAL runs the serial spine
  // until heartbeats promote parallelism.
  workers_[0].current = Range{0, cfg_.total_iters};

  if (backend_ != nullptr && cfg_.heartbeat_period != 0) {
    backend_->start(cfg_.heartbeat_period, cfg_.num_workers);
  }

  for (unsigned wid = 0; wid < cfg_.num_workers; ++wid) {
    nautilus::ThreadConfig tc;
    tc.name = "tpal-worker" + std::to_string(wid);
    tc.bound_core = wid;
    tc.body = [this, wid](nautilus::ThreadContext& ctx) {
      return worker_step(wid, ctx);
    };
    kernel_.spawn(std::move(tc));
  }

  auto& machine = kernel_.machine();
  const bool ok = machine.run([this] {
    return iters_done_ >= cfg_.total_iters;
  });
  IW_ASSERT_MSG(ok, "TPAL run hit machine watchdog");
  if (backend_ != nullptr) backend_->stop();
  // Drain remaining thread bookkeeping (workers observe completion).
  machine.run([this] {
    return std::all_of(workers_.begin(), workers_.end(),
                       [](const Worker& w) { return w.done; });
  });

  TpalResult res;
  Cycles makespan = 0;
  for (unsigned c = 0; c < cfg_.num_workers; ++c) {
    makespan = std::max(makespan, machine.core(c).clock());
  }
  res.makespan = makespan;
  for (const auto& w : workers_) {
    res.promotions += w.promotions;
    res.steals += w.deque.steals();
    res.polls += w.polls;
    res.beats_handled += w.beats_handled;
    res.work_cycles += w.work_cycles;
    res.overhead_cycles += w.overhead_cycles;
  }
  return res;
}

}  // namespace iw::heartbeat
