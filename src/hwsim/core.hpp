// A simulated CPU core: a local virtual-cycle clock, an interrupt
// controller front-end (vector table + pending queues), and a pluggable
// CoreDriver that supplies the work the core executes.
//
// Execution model: the machine's DES loop always advances the core whose
// next action has the globally smallest timestamp, so shared state is
// always touched in nondecreasing virtual-time order. Drivers execute in
// *steps*; interrupts are recognized at step boundaries (exactly the
// "check placement granularity" story that Figs. 3 and 4 are about).
//
// Scheduling cache: `next_action_time()` is cached and recomputed only
// after an invalidation, so the machine's frontier index pays O(log N)
// per event instead of O(N) rescans. Every mutation the simulator itself
// performs (event posts, clock movement, mask changes, delivery) marks
// the cache dirty automatically. A CoreDriver whose `runnable()` answer
// can change through any *other* channel (e.g. direct mutation of shared
// run queues from a different core's timeline) must call
// `mark_schedule_dirty()` on the affected core — see nautilus::Kernel's
// enqueue_ready/submit_task for the canonical examples.
//
// The stepping core is the exception: `advance()` returns its next
// action time, computed after the step. Under kFrontier the machine
// writes that value into the core's cache and winner-tree leaf itself,
// holding the core's dirty flag set for the step, so the core's own
// invalidations cost one flag test and never reach the frontier's
// dirty list; that list carries only cores dirtied from another context
// (IPIs, wakes, machine-queue events, fast-forward commits). The epoch
// engine folds the returned times into its next horizon instead.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "hwsim/cost_model.hpp"
#include "hwsim/event_queue.hpp"

namespace iw::hwsim {

class Machine;
class Core;

/// Interrupt handler: called with the core at the time of dispatch.
using IrqHandler = std::function<void(Core&, int vector)>;

/// Interrupt vectors are 0..255 (the x86 IDT size). Every entry point
/// that takes a vector — handler install, IRQ post, IPI post, snapshot
/// decode — rejects one outside this range.
inline constexpr int kNumIrqVectors = 256;

/// An analytic skip-ahead plan: the exact trajectory a core's driver
/// steps would trace up to a proven-quiet horizon (see
/// CoreDriver::plan_fast_forward and Machine's FastForwardPolicy).
struct FastForwardPlan {
  /// Clock after replaying the steps: the first stepped value at/past
  /// the horizon (a step straddling the horizon completes — delivery
  /// happens at clock >= event time, matching full fidelity), or
  /// earlier if the driver goes idle inside the window.
  Cycles end_clock{0};
  /// Number of driver steps the plan replays analytically.
  std::uint64_t steps{0};
};

/// Supplies work for a core. Implemented by the kernel substrates
/// (nautilus::Kernel, linuxmodel::LinuxStack).
class CoreDriver {
 public:
  virtual ~CoreDriver() = default;

  /// Does this core have runnable work right now? Must be side-effect
  /// free: the scheduler may cache the answer until the next
  /// invalidation (see the scheduling-cache contract above).
  virtual bool runnable(Core& core) = 0;

  /// Execute one step; must advance core.clock() by at least one cycle
  /// (enforced by the machine loop to guarantee progress).
  virtual void step(Core& core) = 0;

  /// Selectable-fidelity hook. Certify that every step this driver
  /// would execute while core.clock() < `horizon` is *inert* — it
  /// consumes cycles and mutates only this driver's own per-core state;
  /// it posts no event, sends no IPI, draws no RNG or sequence number,
  /// records no trace or metric, and touches no other core — and
  /// predict the stepped trajectory exactly: plan->end_clock and
  /// plan->steps must equal what step-by-step execution would produce
  /// (the machine's paranoid mode re-runs sampled windows in full
  /// fidelity and aborts on any mismatch). A driver that goes idle
  /// inside the window reports the shorter trajectory (end_clock <
  /// horizon, runnable() false at that clock). Must itself be
  /// side-effect free; state is committed later via apply_fast_forward.
  /// Return false to decline (the default): the DES then steps the
  /// window cycle-accurately. Declining is always safe.
  virtual bool plan_fast_forward(Core& core, Cycles horizon,
                                 FastForwardPlan* plan) {
    (void)core;
    (void)horizon;
    (void)plan;
    return false;
  }

  /// Commit driver-internal state for a plan the machine is applying
  /// (e.g. decrement a remaining-work counter by plan.steps). The
  /// machine moves the core clock and the step/advance accounting
  /// itself; this hook must not touch the core.
  virtual void apply_fast_forward(Core& core, const FastForwardPlan& plan) {
    (void)core;
    (void)plan;
  }
};

class Core {
 public:
  Core(Machine& machine, CoreId id);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  [[nodiscard]] CoreId id() const { return id_; }
  [[nodiscard]] Cycles clock() const { return clock_; }
  [[nodiscard]] Machine& machine() { return machine_; }
  [[nodiscard]] const CostModel& costs() const;

  /// Consume `c` cycles of execution time.
  void consume(Cycles c) {
    clock_ += c;
    on_clock_moved();
  }

  /// Move the clock forward to `t` (no-op if already past it).
  void advance_to(Cycles t) {
    if (t > clock_) {
      clock_ = t;
      on_clock_moved();
    }
  }

  // --- interrupt controller front-end ---

  /// Install `handler` for `vector`, replacing any installed one; a
  /// null handler uninstalls. A vector without a handler still pays the
  /// dispatch + return charge when it is delivered. Safe to call from
  /// inside a handler, for any vector including the one dispatching.
  void set_irq_handler(int vector, IrqHandler handler);
  void set_interrupts_enabled(bool enabled);
  [[nodiscard]] bool interrupts_enabled() const { return irq_enabled_; }

  /// Post an IRQ to arrive at absolute time `t` (called by machine/LAPIC).
  /// `origin` is the virtual time of the causing action (IPI send, LAPIC
  /// fire) for latency attribution; kNever means "same as t". `ipi`
  /// marks inter-processor interrupts for the IPI latency histogram.
  void post_irq(Cycles t, int vector, Cycles origin = kNever,
                bool ipi = false);

  /// Origin timestamp of the IRQ currently being dispatched (valid only
  /// inside an IrqHandler; the causing action's virtual time).
  [[nodiscard]] Cycles current_irq_origin() const { return cur_irq_origin_; }

  /// Post a core-local event at absolute time `t`: dispatched to the
  /// machine-registered sink's on_core_event with `payload` (device
  /// models, kernels and runtimes that must run on this core's
  /// timeline; core events are machine-internal and ignore the
  /// interrupt mask). The queue entry is plain data, so snapshot v2 can
  /// serialize it.
  void post_event(Cycles t, SinkId sink, const EventPayload& payload = {});

  /// Post a timer fire at absolute time `t`: the dominant scheduled-work
  /// case, carried inline (sink pointer + generation). Ordered
  /// identically to post_event (same queue, same sequence source).
  void post_timer(Cycles t, TimerSink* sink, std::uint64_t gen);

  [[nodiscard]] std::uint64_t pending_irqs() const { return irq_inbox_.size(); }

  /// Earliest *deliverable* inbox event: core events unconditionally,
  /// IRQs only while interrupts are enabled; kNever if none. The
  /// fast-forward quiet proof reads this for runnable cores — a due
  /// event bounds how far their steps can be skipped, because full
  /// fidelity delivers it the moment a step carries the clock past it.
  [[nodiscard]] Cycles earliest_deliverable() const {
    const Cycles irq_t = irq_enabled_ ? irq_inbox_.peek_time() : kNever;
    return std::min(callback_inbox_.peek_time(), irq_t);
  }

  /// Deliver all events due at or before the current clock: core events
  /// unconditionally, IRQs only while interrupts are enabled. Each IRQ
  /// pays dispatch + return costs from the cost model. advance() calls
  /// it only when earliest_deliverable() <= clock().
  unsigned deliver_due_events();

  // --- driver ---

  void set_driver(CoreDriver* driver) {
    driver_ = driver;
    mark_schedule_dirty();
  }
  [[nodiscard]] CoreDriver* driver() const { return driver_; }

  /// True if the driver reports runnable work.
  [[nodiscard]] bool runnable() {
    return driver_ != nullptr && driver_->runnable(*this);
  }

  /// Next time this core needs the machine loop's attention:
  ///  - its own clock if runnable,
  ///  - else the earliest *deliverable* inbox event time,
  ///  - kNever if idle with nothing deliverable.
  /// Cached; recomputed only after an invalidation. The cache cell
  /// lives behind a pointer: dense machine-owned SoA arrays in the
  /// sequential schedulers (so frontier scans and the fast-forward
  /// quiet proof stream over contiguous memory), a private padded cell
  /// in per-core parallel mode (concurrent shard writes must not share
  /// a cache line). See Machine's constructor.
  [[nodiscard]] Cycles next_action_time() {
    if (*sched_dirty_ != 0) {
      *sched_time_ = compute_next_action_time();
      *sched_dirty_ = 0;
    }
    return *sched_time_;
  }

  /// Uncached recompute (the seed linear-scan scheduler's view; also the
  /// paranoid cross-check's reference).
  [[nodiscard]] Cycles next_action_time_uncached() {
    return compute_next_action_time();
  }

  /// Invalidate the cached next_action_time and re-register this core
  /// with the machine's frontier index. Idempotent and O(1) while
  /// already dirty. Drivers must call this when their runnable() answer
  /// changes through a channel the simulator cannot observe.
  void mark_schedule_dirty() {
    if (*sched_dirty_ == 0) {
      *sched_dirty_ = 1;
      notify_machine_dirty();
    }
  }

  /// Execute one advance — deliver due events, then run one driver step
  /// (or jump the clock to the next event if idle) — and return the
  /// next action time it leaves (next_action_time_uncached() after the
  /// step). The only step routine: every scheduler and the epoch
  /// engine's shard drain loop over it. A runnable core with nothing
  /// due makes no call beyond the driver's runnable() and step().
  Cycles advance();

  /// Commit one analytic skip (machine-only: the quiet-window proof
  /// lives in Machine::try_fast_forward). Moves the clock through the
  /// same charging path stepping uses, accounts the replayed steps, and
  /// lets the driver commit its internal state.
  void commit_fast_forward(const FastForwardPlan& plan);

  /// Pre-size both inboxes (heap + slab + free list) for `n` concurrent
  /// events. Called by the Machine constructor from
  /// MachineConfig::inbox_reserve so warm-up stops paying vector growth.
  void reserve_inboxes(std::size_t n) {
    irq_inbox_.reserve(n);
    callback_inbox_.reserve(n);
  }

  // --- accounting ---
  [[nodiscard]] std::uint64_t irqs_delivered() const { return irqs_delivered_; }
  [[nodiscard]] Cycles irq_overhead_cycles() const { return irq_overhead_; }
  [[nodiscard]] std::uint64_t steps_executed() const { return steps_; }
  /// Growth reallocations both inboxes have performed since
  /// construction (see TimedQueue::grow_allocs; feeds
  /// Machine::hot_path_allocs and the allocs_per_million_events bench
  /// number).
  [[nodiscard]] std::uint64_t inbox_grow_allocs() const {
    return irq_inbox_.grow_allocs() + callback_inbox_.grow_allocs();
  }

 private:
  friend class Machine;

  /// Push a fully-formed IRQ event (sequence number and fault fate
  /// already drawn in the sender's context) into the inbox. The fabric
  /// delivery tail: called by Machine::enqueue_ipi directly or at an
  /// epoch barrier when the delivery was buffered in a sender outbox.
  void enqueue_irq(const IrqEvent& ev) {
    irq_inbox_.push(ev);
    mark_schedule_dirty();
  }

  /// Inline, like runnable(): advance() ends every step with it.
  [[nodiscard]] Cycles compute_next_action_time() {
    if (runnable()) return clock_;
    // kNever is the largest Cycles value, so an empty inbox stays kNever.
    return std::max(earliest_deliverable(), clock_);
  }
  /// Out-of-line slow path: registers with the machine's frontier.
  void notify_machine_dirty();

  /// Clock moved: keep the machine's O(1) now() cache exact (clocks are
  /// monotone, so the global frontier is a running max) and invalidate
  /// the scheduling cache.
  void on_clock_moved() {
    if (clock_ > *machine_now_) *machine_now_ = clock_;
    mark_schedule_dirty();
  }

  /// The handler installed for `vector`, or null. Returned by shared
  /// reference so a dispatch keeps its handler alive while the handler
  /// itself reinstalls vectors.
  [[nodiscard]] std::shared_ptr<const IrqHandler> irq_handler(
      int vector) const;

  Machine& machine_;
  /// Destination of clock-movement publication: Machine::now_cache_ in
  /// the sequential schedulers. In per-core parallel mode the Machine
  /// constructor points it at this core's own clock_, so the update
  /// never fires (concurrent shards write no shared line) and now()
  /// folds the core clocks instead.
  Cycles* machine_now_;
  CoreId id_;
  Cycles clock_{0};
  bool irq_enabled_{true};
  /// Scheduling-cache cell for this core, as one padded private block.
  /// The slot pointers below default to it and are repointed into the
  /// machine's dense SoA arrays by the sequential schedulers (same
  /// pattern as machine_now_): dense for scan locality, private for
  /// shard isolation.
  struct alignas(64) SchedCell {
    Cycles time{0};
    std::uint8_t dirty{1};
  };
  SchedCell sched_cell_;
  Cycles* sched_time_{&sched_cell_.time};
  std::uint8_t* sched_dirty_{&sched_cell_.dirty};
  Cycles cur_irq_origin_{0};
  TimedQueue<IrqEvent> irq_inbox_;
  TimedQueue<CoreEvent> callback_inbox_;
  /// Installed vectors only: cores install one to a few, and a dense
  /// 256-entry table would cost 8 KB per core.
  struct InstalledVector {
    int vector;
    std::shared_ptr<const IrqHandler> handler;
  };
  std::vector<InstalledVector> vectors_;
  CoreDriver* driver_{nullptr};

  std::uint64_t irqs_delivered_{0};
  Cycles irq_overhead_{0};
  std::uint64_t steps_{0};
};

}  // namespace iw::hwsim
