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
//                     (TimerSink* + generation, allocation-free) or a
//                     sink-dispatched plain-data event (SinkId +
//                     payload);
//  * Event          — machine-level sink-dispatched event.
// All three are trivially copyable plain data: no queued record holds a
// closure, so every snapshot of the queues can be serialized.
#pragma once

#include <cstdint>
#include <type_traits>
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

/// Core-local scheduled work. Tagged: `timer != nullptr` is an inline
/// timer fire (the dominant case); otherwise `sink` names the
/// registered EventSink that receives `payload`.
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
  SinkId sink{kNoSink};
  EventPayload payload;
};

/// Machine-level event (rare: device models, watchdog checks, test
/// harnesses), dispatched through the machine's sink table.
struct Event {
  Cycles time{0};
  std::uint64_t seq{0};
  SinkId sink{kNoSink};
  EventPayload payload;
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
  }

  /// Visit every queued event (heap order, not time order — snapshot
  /// code sorts by (time, seq) before writing, so that two machines with
  /// the same *logical* queue contents but different push interleavings
  /// write the same image).
  template <class F>
  void for_each(F&& f) const {
    for (const Rec& r : heap_) f(slab_[r.idx]);
  }

  /// Growth reallocations since construction (heap, slab, free list).
  /// The steady-state hot path should hold this at zero once warm;
  /// bench/des_throughput reports it as allocs_per_million_events.
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
  std::uint64_t grow_allocs_{0};
};

extern template class TimedQueue<IrqEvent>;
extern template class TimedQueue<CoreEvent>;
extern template class TimedQueue<Event>;

/// The machine-level queue.
using EventQueue = TimedQueue<Event>;

}  // namespace iw::hwsim
