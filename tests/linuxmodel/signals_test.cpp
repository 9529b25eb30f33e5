#include "linuxmodel/signals.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace iw::linuxmodel {
namespace {

hwsim::MachineConfig mcfg(unsigned cores) {
  hwsim::MachineConfig cfg;
  cfg.num_cores = cores;
  cfg.max_advances = 100'000'000;
  return cfg;
}

TEST(SignalPath, LatencyDrawsAreMicrosecondScale) {
  hwsim::Machine m(mcfg(1));
  LinuxStack lx(m);
  SignalPath sig(lx);
  std::vector<double> us;
  const auto& freq = m.costs().freq;
  for (int i = 0; i < 5000; ++i) {
    us.push_back(freq.cycles_to_us(sig.draw_latency()));
  }
  std::sort(us.begin(), us.end());
  const double p50 = us[us.size() / 2];
  const double p99 = us[us.size() * 99 / 100];
  EXPECT_GT(p50, 1.0);
  EXPECT_LT(p50, 8.0);
  EXPECT_GT(p99, p50 * 2.0) << "heavy tail expected";
  EXPECT_LE(us.back(), lx.costs().signal_latency_cap_us + 1.0);
}

TEST(SignalPath, DeliveryRunsHandlerOnTargetCore) {
  hwsim::Machine m(mcfg(2));
  LinuxStack lx(m);
  SignalPath sig(lx);
  int handled_on = -1;
  Cycles handled_at = 0;
  std::uint64_t handled_arg = 0;
  const SignalActionId action =
      sig.register_action([&](hwsim::Core& c, std::uint64_t arg) {
        handled_on = static_cast<int>(c.id());
        handled_at = c.clock();
        handled_arg = arg;
      });
  const Cycles send_time = m.core(0).clock();
  sig.send(m.core(0), 1, action, 7);
  EXPECT_TRUE(m.run());
  EXPECT_EQ(handled_arg, 7u);
  EXPECT_EQ(handled_on, 1);
  EXPECT_EQ(sig.sent(), 1u);
  EXPECT_EQ(sig.delivered(), 1u);
  // End-to-end: sender syscall + queue, latency, frame setup.
  const auto min_latency =
      lx.costs().syscall_entry + lx.costs().signal_frame_setup;
  EXPECT_GT(handled_at - send_time, min_latency);
}

TEST(SignalPath, SenderPaysKernelSendPath) {
  hwsim::Machine m(mcfg(2));
  LinuxStack lx(m);
  SignalPath sig(lx);
  const Cycles before = m.core(0).clock();
  sig.send(m.core(0), 1, kNoSignalAction);
  const Cycles sender_cost = m.core(0).clock() - before;
  const auto& c = lx.costs();
  EXPECT_EQ(sender_cost, c.syscall_entry + c.mitigation + c.syscall_exit +
                             c.signal_kernel_send);
}

TEST(SignalPath, LatencyHistogramPopulated) {
  hwsim::Machine m(mcfg(2));
  LinuxStack lx(m);
  SignalPath sig(lx);
  for (int i = 0; i < 50; ++i) {
    sig.send_from_kernel(0, static_cast<Cycles>(i) * 100'000, 1,
                         kNoSignalAction);
  }
  EXPECT_TRUE(m.run());
  EXPECT_EQ(sig.delivered(), 50u);
  EXPECT_EQ(sig.latency_hist().count(), 50u);
  EXPECT_GT(sig.latency_hist().mean(), 0.0);
}

TEST(SignalPath, DeterministicAcrossRuns) {
  auto run = [] {
    hwsim::Machine m(mcfg(2));
    LinuxStack lx(m);
    SignalPath sig(lx);
    std::vector<Cycles> lat;
    for (int i = 0; i < 10; ++i) lat.push_back(sig.draw_latency());
    return lat;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace iw::linuxmodel
