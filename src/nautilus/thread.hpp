// Nautilus threads.
//
// A simulated thread's body is a *step function* invoked repeatedly by
// the scheduler; each invocation models the code the compiler emitted
// between two preemption-safe points. Returning kContinue/kYield/kBlock/
// kDone from a step is exactly the set of control transfers the
// interweaving compiler can emit (paper §IV-C: preemption happens at
// compiler-chosen points, not arbitrary instructions).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.hpp"

namespace iw::hwsim {
class Core;
}

namespace iw::nautilus {

class Kernel;
class WaitQueue;
class Thread;

enum class ThreadState : std::uint8_t {
  kReady,
  kRunning,
  kBlocked,
  kFinished,
};

struct StepResult {
  enum class Next : std::uint8_t { kContinue, kYield, kBlock, kDone };

  Cycles cycles{0};   // virtual cycles this step consumed
  Next next{Next::kContinue};
  WaitQueue* wait{nullptr};  // required when next == kBlock

  static StepResult cont(Cycles c) { return {c, Next::kContinue, nullptr}; }
  static StepResult yield(Cycles c) { return {c, Next::kYield, nullptr}; }
  static StepResult block(Cycles c, WaitQueue* q) {
    return {c, Next::kBlock, q};
  }
  static StepResult done(Cycles c) { return {c, Next::kDone, nullptr}; }
};

struct ThreadContext {
  Thread& thread;
  hwsim::Core& core;
  Kernel& kernel;
};

using ThreadBody = std::function<StepResult(ThreadContext&)>;

struct ThreadConfig {
  std::string name{"thread"};
  CoreId bound_core{0};
  bool uses_fp{false};
  bool realtime{false};
  Cycles rt_relative_deadline{0};  // EDF deadline from admission time
  ThreadBody body;
};

class Thread {
 public:
  Thread(std::uint64_t id, ThreadConfig cfg)
      : id_(id), cfg_(std::move(cfg)) {}

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return cfg_.name; }
  [[nodiscard]] CoreId bound_core() const { return cfg_.bound_core; }
  [[nodiscard]] bool uses_fp() const { return cfg_.uses_fp; }
  [[nodiscard]] bool realtime() const { return cfg_.realtime; }
  [[nodiscard]] ThreadState state() const { return state_; }
  [[nodiscard]] Cycles deadline() const { return deadline_; }

  /// Simulated address of the thread's stack/context block (kNever if
  /// the kernel was built without a NUMA domain).
  [[nodiscard]] Addr state_addr() const { return state_addr_; }

  // --- statistics ---
  [[nodiscard]] Cycles run_cycles() const { return run_cycles_; }
  [[nodiscard]] std::uint64_t switches_in() const { return switches_in_; }

 private:
  friend class Kernel;
  friend class WaitQueue;

  std::uint64_t id_;
  ThreadConfig cfg_;
  ThreadState state_{ThreadState::kReady};
  Cycles deadline_{0};  // absolute EDF deadline (realtime threads)
  Cycles slice_end_{0};
  Addr state_addr_{kNever};

  Cycles run_cycles_{0};
  std::uint64_t switches_in_{0};
};

}  // namespace iw::nautilus
