// OpenMP barrier implementations per execution mode (paper §V-A).
//
// RTK/PIK (in-kernel): a spin barrier — one atomic arrive, spinners
// burn cycles until the generation flips; no syscalls exist to pay.
//
// Linux (libomp-over-futex): arrivals cross into the kernel; the last
// arriver wakes every waiter through the futex path, serialized on its
// own core and paying per-wake costs plus IPI latency to remote CPUs.
// At high thread counts this serial wake chain dominates — which is why
// Fig. 6's gap grows with scale.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "hwsim/core.hpp"
#include "linuxmodel/futex.hpp"
#include "nautilus/event.hpp"

namespace iw::omp {

class SpinBarrier {
 public:
  explicit SpinBarrier(unsigned parties) : parties_(parties) {}

  /// Arrive; pays one atomic RMW on `core`. Returns the generation to
  /// poll against (passed() flips when everyone arrived). The arrival
  /// that flips a generation records its step's start clock and core:
  /// its place in the DES pick order, which check_poll_order tests
  /// spinners' blind polls against.
  std::uint64_t arrive(hwsim::Core& core);

  [[nodiscard]] bool passed(std::uint64_t gen) const {
    return generation_ != gen;
  }
  /// Cycles one spin-poll costs (load + pause).
  [[nodiscard]] static constexpr Cycles spin_cost() { return 40; }

  /// Arm the hang detector: a spinner that has waited more than
  /// `timeout` cycles panics with a full machine-state dump (a worker
  /// that never arrives — lost beat, wedged core — would otherwise spin
  /// silently forever). 0 disables (the default).
  void set_timeout(Cycles timeout) { timeout_ = timeout; }
  [[nodiscard]] Cycles timeout() const { return timeout_; }

  /// Spin-loop check: `entered` is the spinner's barrier-arrival time on
  /// `core`'s clock. Panics (dump + abort) when the timeout is exceeded.
  void check_timeout(hwsim::Core& core, Cycles entered) const;

  /// First poll cycle at which check_timeout panics for a spinner that
  /// arrived at `entered` (kNever while the timeout is off).
  [[nodiscard]] Cycles timeout_poll(Cycles entered) const {
    if (timeout_ == 0) return kNever;
    return saturating_add(entered, saturating_add(timeout_, 1));
  }

  /// Exactness guard for blind polls (DESIGN.md, "OpenMP spin waits"):
  /// the spinner on `core` has just observed the last flip, and the
  /// last blind poll its previous step covered, at `last_poll`, read
  /// "not passed". That poll must precede the flipping arrival in pick
  /// order: an earlier cycle, or the same cycle on a lower core.
  /// Otherwise it panics (dump + abort), naming the worker (worker w
  /// runs on core w), the poll and the flip. kNever = the previous step
  /// took no blind poll.
  void check_poll_order(hwsim::Core& core, Cycles last_poll) const;

  void reset(unsigned parties) {
    parties_ = parties;
    count_ = 0;
  }

 private:
  unsigned parties_;
  unsigned count_{0};
  std::uint64_t generation_{0};
  Cycles timeout_{0};
  /// The last flip's arrival: its step's start clock and its core.
  Cycles flip_at_{0};
  CoreId flip_core_{0};
};

class FutexBarrier {
 public:
  FutexBarrier(linuxmodel::FutexTable& futex, Addr addr, unsigned parties)
      : futex_(futex), addr_(addr), parties_(parties) {}

  struct Arrival {
    bool last{false};
    nautilus::StepResult block;  // valid when !last
  };

  /// Arrive with `work_done` cycles accumulated in this step. If not
  /// last, the returned StepResult blocks the thread on the futex; if
  /// last, all waiters are woken (serialized on `core`) and the caller
  /// proceeds.
  Arrival arrive(hwsim::Core& core, Cycles work_done);

 private:
  linuxmodel::FutexTable& futex_;
  Addr addr_;
  unsigned parties_;
  unsigned count_{0};
};

}  // namespace iw::omp
