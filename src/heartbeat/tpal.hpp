// TPAL-style heartbeat scheduling runtime (paper §IV-B).
//
// Workers execute chunked loop iterations; the compiler has inserted a
// promotion-flag poll at every chunk boundary. When a heartbeat has
// arrived since the last poll, the worker *promotes*: it splits its
// private iteration range and publishes half to its work-stealing deque,
// where idle workers can steal it. This is heartbeat scheduling's core
// bargain: parallelism is materialized at a controlled rate ♥ instead of
// eagerly, bounding scheduling overhead while preserving scalability.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "heartbeat/delivery.hpp"
#include "heartbeat/deque.hpp"
#include "nautilus/kernel.hpp"

namespace iw::heartbeat {

struct TpalConfig {
  unsigned num_workers{16};
  std::uint64_t total_iters{1'000'000};
  Cycles cycles_per_iter{30};
  std::uint64_t chunk{64};     // iterations between compiler-inserted polls
  Cycles poll_cost{3};         // flag check at a chunk boundary
  Cycles promotion_cost{260};  // split + deque publish
  Cycles steal_cost{450};      // steal attempt (hit or miss)
  std::uint64_t min_grain{128};  // don't split below this many iterations
  /// Heartbeat period (0 = heartbeat disabled: plain chunked execution).
  Cycles heartbeat_period{0};
};

struct TpalResult {
  Cycles makespan{0};           // virtual time to complete all iterations
  std::uint64_t promotions{0};
  std::uint64_t steals{0};
  std::uint64_t polls{0};
  std::uint64_t beats_handled{0};
  Cycles work_cycles{0};        // productive iteration cycles
  Cycles overhead_cycles{0};    // polls + promotions + steal attempts
  /// Per-worker delivered heartbeat stats live in the backend.
};

/// Runs a TPAL loop workload on an already-attached kernel. The backend
/// delivers heartbeats; pass nullptr to run without promotion (serial
/// spine with no parallelization — the baseline for overhead numbers).
class TpalRuntime {
 public:
  TpalRuntime(nautilus::Kernel& kernel, TpalConfig cfg,
              HeartbeatBackend* backend);

  /// Spawn workers and run the machine to completion.
  TpalResult run();

 private:
  struct Worker {
    WorkDeque deque;
    Range current{};
    std::uint64_t promotions{0};
    std::uint64_t polls{0};
    std::uint64_t beats_handled{0};
    Cycles work_cycles{0};
    Cycles overhead_cycles{0};
    bool done{false};
  };

  nautilus::StepResult worker_step(unsigned wid,
                                   nautilus::ThreadContext& ctx);
  /// The chunks after a step's own that the same step runs, the first
  /// starting at `start` (DESIGN.md §12, "TPAL chunks"); returns their
  /// charge.
  Cycles fold_chunks(Worker& w, hwsim::Core& core, Cycles start);

  nautilus::Kernel& kernel_;
  TpalConfig cfg_;
  HeartbeatBackend* backend_;
  std::vector<Worker> workers_;
  std::uint64_t iters_done_{0};
  Rng steal_rng_{0x7ea1};
};

}  // namespace iw::heartbeat
