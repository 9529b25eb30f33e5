#include "nautilus/kernel.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "mem/numa.hpp"
#include "nautilus/event.hpp"

namespace iw::nautilus {
namespace {

hwsim::MachineConfig mcfg(unsigned cores) {
  hwsim::MachineConfig cfg;
  cfg.num_cores = cores;
  cfg.max_advances = 50'000'000;
  return cfg;
}

/// Thread body: run `steps` steps of `step_cycles` each, then finish.
ThreadBody counting_body(std::uint64_t steps, Cycles step_cycles,
                         std::uint64_t* counter = nullptr) {
  auto remaining = std::make_shared<std::uint64_t>(steps);
  return [remaining, step_cycles, counter](ThreadContext&) -> StepResult {
    if (counter) ++*counter;
    if (--*remaining == 0) return StepResult::done(step_cycles);
    return StepResult::cont(step_cycles);
  };
}

TEST(KernelDeathTest, RefusesParallelEpochByName) {
  // Remote spawns, wakes and task submissions write other cores' queues
  // directly, so the kernel (and LinuxStack and TPAL over it) cannot
  // bind to per-core shards.
  hwsim::MachineConfig cfg = mcfg(2);
  cfg.scheduler = hwsim::SchedulerKind::kParallelEpoch;
  hwsim::Machine m(cfg);
  EXPECT_DEATH({ Kernel k(m); },
               "nautilus::Kernel shares state across cores outside the IPI "
               "fabric and cannot run on kParallelEpoch's per-core shards; "
               "use kFrontier or kLinearScan");
}

TEST(Kernel, SingleThreadRunsToCompletion) {
  hwsim::Machine m(mcfg(1));
  Kernel k(m);
  k.attach();
  std::uint64_t count = 0;
  ThreadConfig tc;
  tc.name = "t0";
  tc.body = counting_body(10, 100, &count);
  Thread* t = k.spawn(std::move(tc));
  EXPECT_TRUE(m.run());
  EXPECT_EQ(count, 10u);
  EXPECT_EQ(t->state(), ThreadState::kFinished);
  EXPECT_EQ(t->run_cycles(), 1000u);
  EXPECT_TRUE(k.quiescent());
}

TEST(Kernel, ThreadsOnDifferentCoresRunInParallel) {
  hwsim::Machine m(mcfg(4));
  Kernel k(m);
  k.attach();
  for (unsigned i = 0; i < 4; ++i) {
    ThreadConfig tc;
    tc.bound_core = i;
    tc.body = counting_body(100, 50);
    k.spawn(std::move(tc));
  }
  EXPECT_TRUE(m.run());
  // Parallel: every core finished at roughly the same virtual time.
  const Cycles c0 = m.core(0).clock();
  for (unsigned i = 1; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(m.core(i).clock()),
                static_cast<double>(c0), 500.0);
  }
}

TEST(Kernel, RoundRobinSharesOneCore) {
  hwsim::Machine m(mcfg(1));
  KernelConfig kc;
  kc.tick_period = 10'000;
  kc.rr_slice = 10'000;
  Kernel k(m, kc);
  k.attach();
  std::uint64_t c1 = 0, c2 = 0;
  {
    ThreadConfig tc;
    tc.name = "a";
    tc.body = counting_body(100, 1'000, &c1);
    k.spawn(std::move(tc));
  }
  {
    ThreadConfig tc;
    tc.name = "b";
    tc.body = counting_body(100, 1'000, &c2);
    k.spawn(std::move(tc));
  }
  EXPECT_TRUE(m.run());
  EXPECT_EQ(c1, 100u);
  EXPECT_EQ(c2, 100u);
  // Both made progress via preemption: >2 switches happened.
  EXPECT_GT(k.stats().context_switches, 4u);
}

TEST(Kernel, EdfRunsEarliestDeadlineFirst) {
  hwsim::Machine m(mcfg(1));
  Kernel k(m);
  k.attach();
  std::vector<int> order;
  auto body = [&order](int id) {
    return [&order, id](ThreadContext&) -> StepResult {
      order.push_back(id);
      return StepResult::done(100);
    };
  };
  // Spawn in reverse-deadline order; EDF must reorder.
  ThreadConfig late;
  late.realtime = true;
  late.rt_relative_deadline = 100'000;
  late.body = body(2);
  k.spawn(std::move(late));
  ThreadConfig early;
  early.realtime = true;
  early.rt_relative_deadline = 1'000;
  early.body = body(1);
  k.spawn(std::move(early));
  EXPECT_TRUE(m.run());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Kernel, RtBeatsNonRt) {
  hwsim::Machine m(mcfg(1));
  Kernel k(m);
  k.attach();
  std::vector<int> order;
  ThreadConfig nrt;
  nrt.body = [&order](ThreadContext&) -> StepResult {
    order.push_back(0);
    return StepResult::done(100);
  };
  k.spawn(std::move(nrt));
  ThreadConfig rt;
  rt.realtime = true;
  rt.rt_relative_deadline = 10'000;
  rt.body = [&order](ThreadContext&) -> StepResult {
    order.push_back(1);
    return StepResult::done(100);
  };
  k.spawn(std::move(rt));
  EXPECT_TRUE(m.run());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1) << "RT thread must run before non-RT";
}

TEST(Kernel, YieldAlternatesThreads) {
  hwsim::Machine m(mcfg(1));
  Kernel k(m);
  k.attach();
  std::vector<int> order;
  auto yielding_body = [&order](int id, int rounds) {
    auto left = std::make_shared<int>(rounds);
    return [&order, id, left](ThreadContext&) -> StepResult {
      order.push_back(id);
      if (--*left == 0) return StepResult::done(10);
      return StepResult::yield(10);
    };
  };
  ThreadConfig a;
  a.body = yielding_body(0, 3);
  k.spawn(std::move(a));
  ThreadConfig b;
  b.body = yielding_body(1, 3);
  k.spawn(std::move(b));
  EXPECT_TRUE(m.run());
  const std::vector<int> expect{0, 1, 0, 1, 0, 1};
  EXPECT_EQ(order, expect);
}

TEST(Kernel, BlockAndWakeAcrossCores) {
  hwsim::Machine m(mcfg(2));
  Kernel k(m);
  k.attach();
  WaitQueue wq(k);
  std::vector<std::string> events;

  ThreadConfig sleeper;
  sleeper.name = "sleeper";
  sleeper.bound_core = 0;
  auto phase = std::make_shared<int>(0);
  sleeper.body = [&, phase](ThreadContext&) -> StepResult {
    if (*phase == 0) {
      *phase = 1;
      events.push_back("sleep");
      return StepResult::block(50, &wq);
    }
    events.push_back("woken");
    return StepResult::done(50);
  };
  Thread* st = k.spawn(std::move(sleeper));

  ThreadConfig waker;
  waker.name = "waker";
  waker.bound_core = 1;
  auto wphase = std::make_shared<int>(0);
  waker.body = [&, wphase](ThreadContext& ctx) -> StepResult {
    if (*wphase == 0) {
      *wphase = 1;
      return StepResult::cont(10'000);  // let the sleeper block first
    }
    events.push_back("signal");
    wq.signal(ctx.core);
    return StepResult::done(100);
  };
  k.spawn(std::move(waker));

  EXPECT_TRUE(m.run());
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], "sleep");
  EXPECT_EQ(events[1], "signal");
  EXPECT_EQ(events[2], "woken");
  EXPECT_EQ(st->state(), ThreadState::kFinished);
  EXPECT_EQ(k.stats().wakes, 1u);
}

TEST(Kernel, CrossCoreSpawnArrivesWithLatency) {
  hwsim::Machine m(mcfg(2));
  Kernel k(m);
  k.attach();
  Cycles spawn_time = 0, first_step_time = 0;

  ThreadConfig parent;
  parent.bound_core = 0;
  parent.body = [&](ThreadContext& ctx) -> StepResult {
    spawn_time = ctx.core.clock();
    ThreadConfig child;
    child.bound_core = 1;
    child.body = [&](ThreadContext& cctx) -> StepResult {
      first_step_time = cctx.core.clock();
      return StepResult::done(10);
    };
    ctx.kernel.spawn(std::move(child), &ctx.core);
    return StepResult::done(10);
  };
  k.spawn(std::move(parent));
  EXPECT_TRUE(m.run());
  EXPECT_GT(first_step_time, spawn_time + m.costs().ipi_latency);
}

TEST(Kernel, TasksRunWhenNoThreads) {
  hwsim::Machine m(mcfg(1));
  Kernel k(m);
  k.attach();
  int ran = 0;
  k.submit_task(0, Task{[&] {
                          ++ran;
                          return Cycles{500};
                        },
                        500});
  k.submit_task(0, Task{[&] {
                          ++ran;
                          return Cycles{500};
                        },
                        500});
  EXPECT_TRUE(m.run());
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(k.stats().tasks.executed, 2u);
  EXPECT_TRUE(k.quiescent());
}

TEST(Kernel, SmallTaskRunsInline) {
  hwsim::Machine m(mcfg(1));
  Kernel k(m);
  k.attach();
  int ran = 0;
  k.run_task_inline_or_queue(m.core(0), Task{[&] {
                                               ++ran;
                                               return Cycles{100};
                                             },
                                             100});
  EXPECT_EQ(ran, 1);  // executed synchronously, no machine.run needed
  EXPECT_EQ(k.stats().tasks.executed_inline, 1u);
}

TEST(Kernel, LargeTaskGetsQueued) {
  hwsim::Machine m(mcfg(1));
  Kernel k(m);
  k.attach();
  int ran = 0;
  k.run_task_inline_or_queue(m.core(0),
                             Task{[&] {
                                    ++ran;
                                    return Cycles{100'000};
                                  },
                                  100'000});
  EXPECT_EQ(ran, 0);  // deferred
  EXPECT_TRUE(m.run());
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(k.stats().tasks.executed_inline, 0u);
}

TEST(Kernel, ThreadStateAllocatedInLocalNumaZone) {
  hwsim::Machine m(mcfg(8));
  mem::NumaConfig nc;
  nc.num_zones = 2;
  nc.zone_size = 1 << 22;
  nc.cores_per_zone = 4;
  mem::NumaDomain numa(nc);
  KernelConfig kc;
  kc.numa = &numa;
  Kernel k(m, kc);
  k.attach();
  std::vector<Thread*> threads;
  for (unsigned c = 0; c < 8; ++c) {
    ThreadConfig tc;
    tc.bound_core = c;
    tc.body = counting_body(2, 100);
    threads.push_back(k.spawn(std::move(tc)));
  }
  // §III: thread state lives in the zone local to the bound CPU.
  for (unsigned c = 0; c < 8; ++c) {
    ASSERT_NE(threads[c]->state_addr(), kNever);
    EXPECT_EQ(numa.zone_of_addr(threads[c]->state_addr()),
              numa.zone_of_core(c))
        << "core " << c;
  }
  const auto held = numa.zone(0).allocated_bytes() +
                    numa.zone(1).allocated_bytes();
  EXPECT_EQ(held, 8u * kc.thread_state_bytes);
  EXPECT_TRUE(m.run());
  // Thread state is released as threads finish.
  EXPECT_EQ(numa.zone(0).allocated_bytes(), 0u);
  EXPECT_EQ(numa.zone(1).allocated_bytes(), 0u);
}

TEST(Kernel, ContextSwitchPaysFpCostOnlyForFpThreads) {
  // Two runs: FP vs no-FP ping-pong; FP run must show higher switch
  // overhead by exactly the fp save/restore costs per switch.
  auto run_pingpong = [&](bool fp) -> double {
    hwsim::Machine m(mcfg(1));
    Kernel k(m);
    k.attach();
    for (int t = 0; t < 2; ++t) {
      ThreadConfig tc;
      tc.uses_fp = fp;
      auto left = std::make_shared<int>(100);
      tc.body = [left](ThreadContext&) -> StepResult {
        if (--*left == 0) return StepResult::done(10);
        return StepResult::yield(10);
      };
      k.spawn(std::move(tc));
    }
    EXPECT_TRUE(m.run());
    return static_cast<double>(k.stats().switch_overhead) /
           static_cast<double>(k.stats().context_switches);
  };
  const double no_fp = run_pingpong(false);
  const double with_fp = run_pingpong(true);
  EXPECT_GT(with_fp, no_fp + 300.0);
}

}  // namespace
}  // namespace iw::nautilus
