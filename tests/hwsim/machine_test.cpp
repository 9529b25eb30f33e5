#include "hwsim/machine.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace iw::hwsim {
namespace {

/// Test driver: each core executes `remaining` steps of `step_cycles`.
class WorkDriver final : public CoreDriver {
 public:
  struct Item {
    Cycles step_cycles{10};
    std::uint64_t remaining{0};
  };

  explicit WorkDriver(unsigned cores) : work_(cores) {}
  Item& item(CoreId c) { return work_[c]; }

  bool runnable(Core& core) override { return work_[core.id()].remaining > 0; }
  void step(Core& core) override {
    auto& w = work_[core.id()];
    core.consume(w.step_cycles);
    --w.remaining;
  }

 private:
  std::vector<Item> work_;
};

MachineConfig small_cfg(unsigned cores) {
  MachineConfig cfg;
  cfg.num_cores = cores;
  cfg.max_advances = 10'000'000;
  return cfg;
}

TEST(Machine, RunsToQuiescence) {
  Machine m(small_cfg(2));
  WorkDriver d(2);
  d.item(0) = {100, 5};
  d.item(1) = {50, 4};
  for (unsigned i = 0; i < 2; ++i) m.core(i).set_driver(&d);
  EXPECT_TRUE(m.run());
  EXPECT_EQ(m.core(0).clock(), 500u);
  EXPECT_EQ(m.core(1).clock(), 200u);
}

TEST(Machine, MinClockOrderKeepsCoresNearEachOther) {
  Machine m(small_cfg(4));
  WorkDriver d(4);
  for (unsigned i = 0; i < 4; ++i) {
    d.item(i) = {10, 1000};
    m.core(i).set_driver(&d);
  }
  // Interleave manually: after each advance the spread between the
  // fastest and slowest *runnable* core should stay within one step.
  // We check the end state (all equal) as a proxy.
  EXPECT_TRUE(m.run());
  for (unsigned i = 0; i < 4; ++i) EXPECT_EQ(m.core(i).clock(), 10000u);
}

TEST(Machine, ScheduledCallbackRuns) {
  Machine m(small_cfg(1));
  bool fired = false;
  m.schedule_at(1234, [&] { fired = true; });
  EXPECT_TRUE(m.run());
  EXPECT_TRUE(fired);
}

TEST(Machine, IrqDeliveryPaysDispatchCosts) {
  Machine m(small_cfg(1));
  auto& core = m.core(0);
  Cycles handler_time = 0;
  core.set_irq_handler(0x20, [&](Core& c, int) { handler_time = c.clock(); });
  core.post_irq(1000, 0x20);
  EXPECT_TRUE(m.run());
  // Handler runs after dispatch cost is charged.
  EXPECT_EQ(handler_time, 1000 + m.costs().interrupt_dispatch);
  EXPECT_EQ(core.irqs_delivered(), 1u);
  EXPECT_EQ(core.clock(),
            1000 + m.costs().interrupt_dispatch + m.costs().interrupt_return);
}

TEST(Machine, IrqHandlerInstallReplaceUninstall) {
  Machine m(small_cfg(1));
  auto& core = m.core(0);
  const Cycles charge =
      m.costs().interrupt_dispatch + m.costs().interrupt_return;
  std::vector<int> seen;
  core.set_irq_handler(0x22, [&](Core&, int v) { seen.push_back(v); });
  core.set_irq_handler(0x23, [&](Core&, int v) { seen.push_back(-v); });
  core.set_irq_handler(0x22, [&](Core&, int v) { seen.push_back(v + 1); });
  core.post_irq(100, 0x22);
  core.post_irq(200, 0x23);
  EXPECT_TRUE(m.run());
  EXPECT_EQ(seen, (std::vector<int>{0x23, -0x23}));  // 0x22 was replaced

  // Uninstalled (and never-installed) vectors run no handler but still
  // pay the dispatch + return charge.
  core.set_irq_handler(0x22, nullptr);
  core.set_irq_handler(0x99, nullptr);
  const Cycles before = core.clock();
  core.post_irq(before, 0x22);
  core.post_irq(before, 0xFF);
  EXPECT_TRUE(m.run());
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(core.clock(), before + 2 * charge);
  EXPECT_EQ(core.irqs_delivered(), 4u);
}

TEST(Machine, IrqHandlerMayReinstallVectorsWhileDispatching) {
  // A handler that installs enough vectors to reallocate the table,
  // then replaces and finally uninstalls its own vector, all while it
  // is running: the dispatch must keep its handler alive (ASan checks).
  Machine m(small_cfg(1));
  auto& core = m.core(0);
  int installed_calls = 0;
  std::vector<int> order;
  core.set_irq_handler(0x40, [&](Core& c, int v) {
    for (int k = 1; k <= 32; ++k) {
      c.set_irq_handler(v + k, [&](Core&, int) { ++installed_calls; });
    }
    c.set_irq_handler(v, [&](Core& c2, int v2) {
      order.push_back(2);
      c2.set_irq_handler(v2, nullptr);
      order.push_back(3);
    });
    order.push_back(1);
  });
  core.post_irq(10, 0x40);
  core.post_irq(20, 0x40);
  core.post_irq(30, 0x40);
  core.post_irq(40, 0x41);
  EXPECT_TRUE(m.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(installed_calls, 1);
  EXPECT_EQ(core.irqs_delivered(), 4u);
}

TEST(Machine, OutOfRangeVectorsAreRejected) {
  EXPECT_DEATH(
      {
        Machine m(small_cfg(1));
        m.core(0).post_irq(10, 256);
      },
      "post_irq: interrupt vector outside");
  EXPECT_DEATH(
      {
        Machine m(small_cfg(1));
        m.core(0).post_irq(10, -1);
      },
      "post_irq: interrupt vector outside");
  EXPECT_DEATH(
      {
        Machine m(small_cfg(2));
        (void)m.post_ipi(1, 300, 0);
      },
      "post_ipi: interrupt vector outside");
  EXPECT_DEATH(
      {
        Machine m(small_cfg(2));
        (void)m.broadcast_ipi(m.core(0), -5);
      },
      "post_ipi: interrupt vector outside");
  EXPECT_DEATH(
      {
        Machine m(small_cfg(1));
        m.core(0).set_irq_handler(256, [](Core&, int) {});
      },
      "set_irq_handler: interrupt vector outside");
}

TEST(Machine, MaskedIrqDeferredUntilEnabled) {
  Machine m(small_cfg(1));
  auto& core = m.core(0);
  bool handled = false;
  core.set_irq_handler(0x21, [&](Core&, int) { handled = true; });
  core.set_interrupts_enabled(false);
  core.post_irq(10, 0x21);
  // A callback at t=5000 re-enables interrupts.
  core.post_callback(5000, [&core] { core.set_interrupts_enabled(true); });
  EXPECT_TRUE(m.run());
  EXPECT_TRUE(handled);
  EXPECT_GE(core.clock(), 5000u);
}

TEST(Machine, IpiArrivesAfterLatency) {
  Machine m(small_cfg(2));
  WorkDriver d(2);
  d.item(0) = {100, 1};  // sender does a bit of work first
  for (unsigned i = 0; i < 2; ++i) m.core(i).set_driver(&d);
  Cycles recv_time = 0;
  m.core(1).set_irq_handler(0x30,
                            [&](Core& c, int) { recv_time = c.clock(); });
  // After core 0 finishes its step, send the IPI.
  m.schedule_at(0, [&] {});  // noop to exercise machine queue too
  EXPECT_TRUE(m.run());
  const Cycles send_start = m.core(0).clock();
  m.send_ipi(m.core(0), 1, 0x30);
  EXPECT_TRUE(m.run());
  EXPECT_EQ(m.core(0).clock(), send_start + m.costs().ipi_send);
  EXPECT_EQ(recv_time, m.core(0).clock() + m.costs().ipi_latency +
                           m.costs().interrupt_dispatch);
  EXPECT_EQ(m.total_ipis(), 1u);
}

TEST(Machine, BroadcastIpiReachesAllButSender) {
  Machine m(small_cfg(4));
  int count = 0;
  for (unsigned i = 0; i < 4; ++i) {
    m.core(i).set_irq_handler(0x31, [&](Core&, int) { ++count; });
  }
  m.broadcast_ipi(m.core(0), 0x31);
  EXPECT_TRUE(m.run());
  EXPECT_EQ(count, 3);
  EXPECT_EQ(m.total_ipis(), 3u);
}

TEST(Machine, WatchdogStopsRunawayTime) {
  MachineConfig cfg = small_cfg(1);
  cfg.max_time = 10'000;
  Machine m(cfg);
  WorkDriver d(1);
  d.item(0) = {1000, 1'000'000};  // would run for 1e9 cycles
  m.core(0).set_driver(&d);
  EXPECT_FALSE(m.run());
}

TEST(Machine, RunUntilStopsAtFrontier) {
  Machine m(small_cfg(1));
  WorkDriver d(1);
  d.item(0) = {100, 1000};
  m.core(0).set_driver(&d);
  EXPECT_TRUE(m.run_until(5000));
  EXPECT_GE(m.core(0).clock(), 5000u);
  EXPECT_LT(m.core(0).clock(), 5200u);  // only ran slightly past
}

TEST(Machine, CallbackChainsPreserveOrder) {
  Machine m(small_cfg(1));
  std::vector<int> order;
  m.schedule_at(100, [&] { order.push_back(1); });
  m.schedule_at(100, [&] { order.push_back(2); });
  m.schedule_at(50, [&] { order.push_back(0); });
  EXPECT_TRUE(m.run());
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
}

}  // namespace
}  // namespace iw::hwsim
