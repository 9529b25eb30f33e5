// StackSubstrate / AnalyticSubstrate unit tests: clock semantics, the
// null-safe observability wrappers, named RNG streams, and the
// determinism contract's "null sinks == no substrate" corner.
#include "substrate/substrate.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "hwsim/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace iw::substrate {
namespace {

TEST(AnalyticSubstrate, ClocksStartAtZeroAndChargeIndependently) {
  AnalyticSubstrate sub(3, 7);
  EXPECT_EQ(sub.num_cores(), 3u);
  for (CoreId c = 0; c < 3; ++c) EXPECT_EQ(sub.core_now(c), 0u);
  EXPECT_EQ(sub.now(), 0u);

  sub.charge(1, 100);
  EXPECT_EQ(sub.core_now(0), 0u);
  EXPECT_EQ(sub.core_now(1), 100u);
  EXPECT_EQ(sub.now(), 100u);

  sub.charge(1, 50);
  EXPECT_EQ(sub.core_now(1), 150u);

  // The frontier is the max over core clocks, not a sum.
  sub.charge(0, 120);
  EXPECT_EQ(sub.now(), 150u);
  sub.charge(0, 60);
  EXPECT_EQ(sub.now(), 180u);
}

TEST(AnalyticSubstrate, AdvanceCoreToNeverMovesBackward) {
  AnalyticSubstrate sub(2);
  sub.advance_core_to(0, 500);
  EXPECT_EQ(sub.core_now(0), 500u);
  sub.advance_core_to(0, 200);  // no-op: already past
  EXPECT_EQ(sub.core_now(0), 500u);
  EXPECT_EQ(sub.now(), 500u);
}

TEST(AnalyticSubstrate, ResetClocksKeepsSinksAndSeed) {
  obs::MetricsRegistry mx;
  AnalyticSubstrate sub(2, 99);
  sub.set_metrics(&mx);
  sub.charge(0, 10);
  sub.charge(1, 20);
  sub.reset_clocks();
  EXPECT_EQ(sub.core_now(0), 0u);
  EXPECT_EQ(sub.core_now(1), 0u);
  EXPECT_EQ(sub.now(), 0u);
  EXPECT_EQ(sub.metrics(), &mx);
  EXPECT_EQ(sub.seed(), 99u);
}

TEST(AnalyticSubstrate, NullSinkWrappersAreSafeNoOps) {
  AnalyticSubstrate sub(1);
  // No tracer and no metrics attached: every wrapper
  // must be a clean no-op (this is the default-off path every ported
  // model runs through when unbound).
  EXPECT_EQ(sub.tracer(), nullptr);
  EXPECT_EQ(sub.metrics(), nullptr);
  sub.trace_span(0, "substrate.test", 0, 10);
  sub.trace_instant(0, "substrate.test", 5);
  sub.metric_add(obs::names::kCoherenceAccesses);
  sub.metric_record(obs::names::kCoherenceAccessLatency, 42);
  EXPECT_EQ(sub.charge_span(0, "substrate.test", 30), 30u);
  EXPECT_EQ(sub.core_now(0), 30u);
}

TEST(AnalyticSubstrate, ChargeSpanRecordsAndReturnsEndTime) {
  obs::TraceRecorder tr;
  obs::MetricsRegistry mx;
  AnalyticSubstrate sub(2);
  sub.set_tracer(&tr);
  sub.set_metrics(&mx);

  sub.charge(1, 1'000);
  const Cycles end = sub.charge_span(1, "substrate.op", 250, 3);
  EXPECT_EQ(end, 1'250u);
  EXPECT_EQ(sub.core_now(1), 1'250u);

  const auto spans = tr.find("substrate.op");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].core, 1u);
  EXPECT_EQ(spans[0].begin, 1'000u);
  EXPECT_EQ(spans[0].end, 1'250u);
  EXPECT_EQ(spans[0].vector, 3);

  sub.metric_add(obs::names::kCoherenceAccesses, 5);
  EXPECT_EQ(mx.counter(obs::names::kCoherenceAccesses), 5u);
}

TEST(RngStreams, DependOnlyOnSeedAndName) {
  AnalyticSubstrate a(1, 42);
  AnalyticSubstrate b(4, 42);  // core count must not matter
  Rng s1 = a.rng_stream("coherence");
  Rng s2 = b.rng_stream("coherence");
  for (int i = 0; i < 64; ++i) EXPECT_EQ(s1.next_u64(), s2.next_u64());

  // Distinct names give independent streams.
  Rng s3 = a.rng_stream("coherence");
  Rng s4 = a.rng_stream("pipeline");
  bool differ = false;
  for (int i = 0; i < 8; ++i) {
    if (s3.next_u64() != s4.next_u64()) differ = true;
  }
  EXPECT_TRUE(differ);

  // Distinct seeds give distinct streams.
  AnalyticSubstrate c(1, 43);
  EXPECT_NE(a.rng_stream("coherence").next_u64(),
            c.rng_stream("coherence").next_u64());
}

TEST(RngStreams, MachineAndAnalyticAgreeOnStreams) {
  // The shared derive_stream_seed means a model sees the same stream on
  // an AnalyticSubstrate and a Machine with the same seed — the tab_*
  // benches' numbers cannot depend on which substrate hosts the model.
  hwsim::MachineConfig mc;
  mc.num_cores = 2;
  mc.seed = 1234;
  hwsim::Machine m(mc);
  AnalyticSubstrate sub(2, 1234);
  Rng from_machine = m.rng_stream("carat");
  Rng from_analytic = sub.rng_stream("carat");
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(from_machine.next_u64(), from_analytic.next_u64());
  }
}

TEST(DeriveStreamSeed, StableAndNameSensitive) {
  EXPECT_EQ(derive_stream_seed(1, "x"), derive_stream_seed(1, "x"));
  EXPECT_NE(derive_stream_seed(1, "x"), derive_stream_seed(2, "x"));
  EXPECT_NE(derive_stream_seed(1, "x"), derive_stream_seed(1, "y"));
  // The empty stream name at seed 0 must not collapse onto the raw seed
  // (the machine scheduler stream is derived from that).
  EXPECT_NE(derive_stream_seed(0, ""), 0u);
}

TEST(MachineSubstrate, MachineImplementsTheInterface) {
  hwsim::MachineConfig mc;
  mc.num_cores = 2;
  hwsim::Machine m(mc);
  StackSubstrate& sub = m;
  EXPECT_EQ(sub.num_cores(), 2u);
  EXPECT_EQ(sub.core_now(0), 0u);
  sub.charge(0, 75);
  EXPECT_EQ(sub.core_now(0), 75u);
  EXPECT_EQ(m.core(0).clock(), 75u);
}

}  // namespace
}  // namespace iw::substrate
