#include "hwsim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"

namespace iw::hwsim {
namespace {

IrqEvent make(Cycles t, std::uint64_t seq) {
  IrqEvent e;
  e.time = t;
  e.seq = seq;
  return e;
}

TEST(EventQueue, EmptyPeek) {
  TimedQueue<IrqEvent> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peek_time(), kNever);
}

TEST(EventQueue, PopsInTimeOrder) {
  TimedQueue<IrqEvent> q;
  q.push(make(30, 0));
  q.push(make(10, 1));
  q.push(make(20, 2));
  EXPECT_EQ(q.pop().time, 10u);
  EXPECT_EQ(q.pop().time, 20u);
  EXPECT_EQ(q.pop().time, 30u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StableForEqualTimes) {
  TimedQueue<IrqEvent> q;
  q.push(make(5, 100));
  q.push(make(5, 101));
  q.push(make(5, 102));
  EXPECT_EQ(q.pop().seq, 100u);
  EXPECT_EQ(q.pop().seq, 101u);
  EXPECT_EQ(q.pop().seq, 102u);
}

TEST(EventQueue, InterleavedPushPop) {
  TimedQueue<IrqEvent> q;
  q.push(make(10, 0));
  q.push(make(5, 1));
  EXPECT_EQ(q.pop().time, 5u);
  q.push(make(1, 2));
  EXPECT_EQ(q.pop().time, 1u);
  EXPECT_EQ(q.pop().time, 10u);
}

TEST(EventQueue, RandomizedHeapProperty) {
  TimedQueue<IrqEvent> q;
  Rng r(77);
  std::vector<Cycles> times;
  for (int i = 0; i < 2000; ++i) {
    const Cycles t = r.uniform(0, 100000);
    times.push_back(t);
    q.push(make(t, static_cast<std::uint64_t>(i)));
  }
  std::sort(times.begin(), times.end());
  for (Cycles expect : times) {
    ASSERT_EQ(q.pop().time, expect);
  }
}

TEST(EventQueue, ClearResets) {
  TimedQueue<IrqEvent> q;
  q.push(make(1, 0));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peek_time(), kNever);
}

TEST(EventQueue, IrqEventIsAllocationFreePod) {
  // The dominant event type must stay trivially copyable (no closure,
  // no heap churn); this is the representation half of the O(log N)
  // scheduler work.
  static_assert(std::is_trivially_copyable_v<IrqEvent>);
  static_assert(sizeof(IrqEvent) <= 32);
}

TEST(EventQueue, CoreEventTimerTagOrdersLikeCallbacks) {
  // Timer fires and sink events share one queue and one (time, seq)
  // order — the tag only changes how the event is dispatched.
  struct NullSink final : TimerSink {
    void on_timer(Core&, Cycles, std::uint64_t) override {}
  };
  NullSink sink;
  TimedQueue<CoreEvent> q;
  CoreEvent timer_ev;
  timer_ev.time = 7;
  timer_ev.seq = 1;
  timer_ev.timer = &sink;
  timer_ev.gen = 42;
  q.push(std::move(timer_ev));
  CoreEvent sink_ev;
  sink_ev.time = 7;
  sink_ev.seq = 0;
  sink_ev.sink = 3;
  sink_ev.payload.w[0] = 99;
  q.push(sink_ev);

  const CoreEvent first = q.pop();
  EXPECT_EQ(first.seq, 0u);
  EXPECT_EQ(first.timer, nullptr);
  EXPECT_EQ(first.sink, 3u);
  EXPECT_EQ(first.payload.w[0], 99u);
  const CoreEvent second = q.pop();
  EXPECT_EQ(second.timer, &sink);
  EXPECT_EQ(second.gen, 42u);
}

TEST(EventQueue, HotRecordsAreTriviallyCopyable) {
  // The packed heap keeps a 16-byte (key, idx) record and a slab of
  // trivially copyable events; no record holds a closure. This is the
  // representation the hot path depends on.
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(std::is_trivially_copyable_v<CoreEvent>);
  static_assert(std::is_trivially_copyable_v<IrqEvent>);
}

TEST(EventQueue, EqualTimePopsInSeqOrderBeyondPackedLowBits) {
  // The packed key carries only the low 16 seq bits; equal-time order
  // must still follow the FULL seq. Use seqs whose low-16 ordering
  // disagrees with the full-seq ordering: 0x1FFFF (low 0xFFFF) precedes
  // 0x20001 (low 0x0001) even though its packed low bits are larger.
  TimedQueue<IrqEvent> q;
  q.push(make(9, 0x20001));
  q.push(make(9, 0x1FFFF));
  q.push(make(9, 0x30000));
  q.push(make(9, 0x0FFFE));
  EXPECT_EQ(q.pop().seq, 0x0FFFEu);
  EXPECT_EQ(q.pop().seq, 0x1FFFFu);
  EXPECT_EQ(q.pop().seq, 0x20001u);
  EXPECT_EQ(q.pop().seq, 0x30000u);
}

TEST(EventQueue, RandomizedEqualTimeSeqOrderProperty) {
  // Property: for any push interleaving, pops come out sorted by
  // (time, full seq) — including provenance-style seqs wider than 16
  // bits, where the packed key's low bits alias across sources.
  TimedQueue<IrqEvent> q;
  Rng r(123);
  std::vector<std::pair<Cycles, std::uint64_t>> expect;
  for (int i = 0; i < 4000; ++i) {
    const Cycles t = r.uniform(0, 50);  // dense times force seq ties
    // (counter << 16) | source: low 16 bits collide between sources.
    const std::uint64_t seq =
        (static_cast<std::uint64_t>(i) << 16) | r.uniform(0, 65535);
    expect.emplace_back(t, seq);
    q.push(make(t, seq));
  }
  std::sort(expect.begin(), expect.end());
  for (const auto& [t, seq] : expect) {
    const IrqEvent e = q.pop();
    ASSERT_EQ(e.time, t);
    ASSERT_EQ(e.seq, seq);
  }
}

TEST(EventQueue, ReserveMakesSteadyStatePushAllocationFree) {
  TimedQueue<IrqEvent> q;
  q.reserve(256);
  EXPECT_EQ(q.grow_allocs(), 0u);
  for (int i = 0; i < 256; ++i) q.push(make(i, static_cast<std::uint64_t>(i)));
  EXPECT_EQ(q.grow_allocs(), 0u);
  // Steady-state churn at the reserved occupancy reuses freed slots.
  for (int i = 0; i < 1000; ++i) {
    (void)q.pop();
    q.push(make(1000 + i, static_cast<std::uint64_t>(256 + i)));
  }
  EXPECT_EQ(q.grow_allocs(), 0u);
  // One more than the reservation grows both the slab and the heap.
  q.push(make(5000, 9999));
  EXPECT_EQ(q.grow_allocs(), 2u);
}

}  // namespace
}  // namespace iw::hwsim
