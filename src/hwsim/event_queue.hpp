// Deterministic time-ordered event queues (binary min-heap with a
// sequence tie-breaker so equal-time events pop in insertion order).
//
// Hot-path layout (see DESIGN.md "Hot-path memory layout"): the heap
// itself stores only packed two-word records — a single uint64_t key
// `(time << 16) | (seq & 0xFFFF)` plus a uint32_t index into a
// slab-allocated side table holding the full event payload. Every sift
// moves 16 bytes regardless of how fat the payload type is, and the
// dominant compare (different times) is one integer compare on the
// packed key. Provenance seqs are wider than the 16 packed low bits, so
// equal-time ordering falls back to the full seq stored in the slab —
// pop order is exactly the historical (time, seq) order, bit-identical
// digests included.
//
// The DES hot path is dominated by IRQ arrivals and timer fires, so the
// event representation is split by role instead of one fat struct:
//  * IrqEvent       — trivially-copyable POD, allocation-free;
//  * CoreEvent      — core-local scheduled work: an inline timer fire
//                     (TimerSink* + generation, allocation-free), a
//                     sink-dispatched plain-data event (SinkId +
//                     payload, snapshot-portable), or a legacy callback
//                     parked out of line (FnSlot);
//  * Event          — machine-level event (sink-dispatched or legacy
//                     callback).
// All three are trivially copyable: legacy std::function arms live in a
// side vector owned by the queue (park_fn/take_fn) and the queued
// record carries only the slot index.
//
// The legacy std::function arms still work for same-instance use
// (tests, ad-hoc harnesses), but a snapshot holding one cannot be
// serialized for cross-instance hydration — Snapshot::serialize()
// rejects it with a diagnostic naming the offending queue.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "hwsim/sink.hpp"

namespace iw::hwsim {

class Core;

/// Receiver of timer-fire events posted via Core::post_timer. Implemented
/// by the timer device models (LapicTimer, PosixTimer). `gen` is the
/// arming generation captured at schedule time, so a stale in-flight fire
/// from before a re-arm/stop can be recognized and dropped without ever
/// allocating a closure.
class TimerSink {
 public:
  virtual void on_timer(Core& core, Cycles at, std::uint64_t gen) = 0;

 protected:
  ~TimerSink() = default;
};

/// Interrupt arrival in a core's IRQ inbox. POD: pushing one never
/// allocates.
struct IrqEvent {
  Cycles time{0};
  std::uint64_t seq{0};
  /// Virtual time of the causing action (IPI send, LAPIC fire). Lets the
  /// dispatch path attribute delivery latency without widening the
  /// handler signature.
  Cycles origin{0};
  std::int32_t vector{-1};
  /// True when this arrival is an inter-processor interrupt (feeds the
  /// ipi.send -> handler_entry latency histogram).
  bool ipi{false};
};

/// Core-local scheduled work. Tagged, checked in order:
///  `timer != nullptr`  — inline timer fire (the dominant case);
///  `sink != kNoSink`   — sink-dispatched plain-data event (portable);
///  otherwise           — legacy parked closure (same-instance only),
///                        resolved via TimedQueue::take_fn(fn).
struct CoreEvent {
  Cycles time{0};
  std::uint64_t seq{0};
  TimerSink* timer{nullptr};
  std::uint64_t gen{0};
  /// For timer fires: the unperturbed fire time handed back to the sink.
  /// Fault-injected jitter delays `time` (when the core recognizes the
  /// fire) without touching `ideal`, so absolute-cadence timers (LAPIC)
  /// re-arm from the ideal and jitter never accumulates into drift.
  /// Equal to `time` whenever no fault plan is active.
  Cycles ideal{0};
  /// Portable identity of `timer` (Machine::register_timer_sink). The
  /// hot path never reads it; Machine::snapshot() stamps it into queue
  /// copies so Snapshot::serialize() can encode the fire without the
  /// pointer, and Machine::restore() resolves it back against the
  /// target machine's registry.
  SinkId timer_sink{kNoSink};
  SinkId sink{kNoSink};
  EventPayload payload;
  FnSlot fn{kNoFnSlot};
};

/// Machine-level event (rare: device models, watchdog checks, test
/// harnesses). `sink != kNoSink` dispatches through the machine's
/// table; otherwise the legacy closure parked at `fn` runs.
struct Event {
  Cycles time{0};
  std::uint64_t seq{0};
  SinkId sink{kNoSink};
  EventPayload payload;
  FnSlot fn{kNoFnSlot};
};

static_assert(std::is_trivially_copyable_v<IrqEvent>,
              "hot event records must stay trivially copyable");
static_assert(std::is_trivially_copyable_v<CoreEvent>,
              "hot event records must stay trivially copyable");
static_assert(std::is_trivially_copyable_v<Event>,
              "hot event records must stay trivially copyable");

template <class EventT>
class TimedQueue {
 public:
  /// Packed heap record: key = (time << kSeqLowBits) | (seq & 0xFFFF),
  /// idx = slab slot of the full event. Two words; every sift moves
  /// exactly this.
  struct Rec {
    std::uint64_t key;
    std::uint32_t idx;
  };
  static constexpr unsigned kSeqLowBits = 16;
  /// Packed keys leave 64 - kSeqLowBits = 48 bits for time — the same
  /// bound the machine frontier tree enforces.
  static constexpr Cycles kMaxTime = (Cycles{1} << 48) - 1;

  /// Pre-size heap, slab, and free list so the first `n` concurrent
  /// events never trigger a growth reallocation (MachineConfig-driven;
  /// see Machine's constructor).
  void reserve(std::size_t n) {
    heap_.reserve(n);
    slab_.reserve(n);
    free_.reserve(n);
  }

  void push(EventT ev) {
    const Cycles t = ev.time;
    const std::uint64_t s = ev.seq;
    IW_ASSERT_MSG(t <= kMaxTime,
                  "TimedQueue: event time exceeds the 48-bit packed-key "
                  "range");
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
      slab_[idx] = ev;
    } else {
      idx = static_cast<std::uint32_t>(slab_.size());
      if (slab_.size() == slab_.capacity()) ++grow_allocs_;
      slab_.push_back(ev);
    }
    if (heap_.size() == heap_.capacity()) ++grow_allocs_;
    heap_.push_back(Rec{(t << kSeqLowBits) | (s & ((std::uint64_t{1} << kSeqLowBits) - 1)), idx});
    sift_up(heap_.size() - 1);
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest event; kNever if empty. One load + shift —
  /// no slab access.
  [[nodiscard]] Cycles peek_time() const {
    return heap_.empty() ? kNever : heap_[0].key >> kSeqLowBits;
  }

  /// Pop the earliest event. Precondition: !empty().
  EventT pop() {
    IW_ASSERT(!heap_.empty());
    const std::uint32_t idx = heap_.front().idx;
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    if (free_.size() == free_.capacity()) ++grow_allocs_;
    free_.push_back(idx);
    return slab_[idx];
  }

  void clear() {
    heap_.clear();
    slab_.clear();
    free_.clear();
    fns_.clear();
    fn_free_.clear();
  }

  /// Park a legacy closure out of line; the returned slot goes into the
  /// queued record's `fn` field and is resolved at dispatch with
  /// take_fn. Slots are free-listed, so steady-state park/take cycles
  /// reuse storage.
  [[nodiscard]] FnSlot park_fn(std::function<void()> fn) {
    IW_ASSERT(fn != nullptr);
    FnSlot slot;
    if (!fn_free_.empty()) {
      slot = fn_free_.back();
      fn_free_.pop_back();
      fns_[slot] = std::move(fn);
    } else {
      slot = static_cast<FnSlot>(fns_.size());
      if (fns_.size() == fns_.capacity()) ++grow_allocs_;
      fns_.push_back(std::move(fn));
    }
    return slot;
  }

  /// Move a parked closure out and free its slot.
  [[nodiscard]] std::function<void()> take_fn(FnSlot slot) {
    IW_ASSERT(slot < fns_.size() && fns_[slot] != nullptr);
    std::function<void()> fn = std::move(fns_[slot]);
    fns_[slot] = nullptr;
    fn_free_.push_back(slot);
    return fn;
  }

  /// Visit every queued event (heap order, not time order — digest code
  /// must sort by (time, seq) before hashing so that two machines with
  /// the same *logical* queue contents but different push interleavings
  /// hash identically). Replaces the old raw() accessor, which exposed
  /// the heap array directly back when events were stored inline.
  template <class F>
  void for_each(F&& f) const {
    for (const Rec& r : heap_) f(slab_[r.idx]);
  }

  /// Mutable visit, for snapshot code that rewrites non-ordering fields
  /// in place (timer pointer <-> sink id translation). Mutating `time`
  /// or `seq` through this would desynchronize the packed keys.
  template <class F>
  void for_each_mutable(F&& f) {
    for (const Rec& r : heap_) f(slab_[r.idx]);
  }

  /// Growth reallocations since construction (heap, slab, free lists,
  /// closure side table). The steady-state hot path should hold this at
  /// zero once warm; bench/des_throughput reports it as
  /// allocs_per_million_events.
  [[nodiscard]] std::uint64_t grow_allocs() const { return grow_allocs_; }

 private:
  /// Strict-weak "a pops later than b". When times differ the packed
  /// keys differ in their high 48 bits and one integer compare decides;
  /// on equal times the low key bits hold only the seq's low 16 bits
  /// (the provenance *source* field), so order falls back to the full
  /// seq in the slab — exactly the historical (time, seq) order.
  [[nodiscard]] bool later(const Rec& a, const Rec& b) const {
    if ((a.key ^ b.key) >> kSeqLowBits) return a.key > b.key;
    return slab_[a.idx].seq > slab_[b.idx].seq;
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Rec> heap_;
  std::vector<EventT> slab_;      // indexed by Rec::idx; holes on free_
  std::vector<std::uint32_t> free_;
  std::vector<std::function<void()>> fns_;
  std::vector<FnSlot> fn_free_;
  std::uint64_t grow_allocs_{0};
};

extern template class TimedQueue<IrqEvent>;
extern template class TimedQueue<CoreEvent>;
extern template class TimedQueue<Event>;

/// The machine-level queue carries plain callback events.
using EventQueue = TimedQueue<Event>;

}  // namespace iw::hwsim
