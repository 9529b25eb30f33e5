// Shared IPI+LAPIC-heavy DES workload for the scheduler benchmarks
// (des_throughput and the gbench advance_once microbenches): a periodic
// LAPIC timer on CPU 0 whose handler broadcasts an IPI to every other
// core, over cores kept busy with fixed-cost spin steps. This is the
// fig3/heartbeat interrupt pattern at benchmark intensity — the regime
// where per-event scheduler cost dominates the simulator's wall clock.
//
// The workload is shard-safe: all cross-core traffic is the broadcast
// through the IPI fabric, and the IRQ accounting is per-core (padded
// cells, each written only by its own core's handler), so it runs under
// every scheduler including kParallelEpoch's per-core shards.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hwsim/lapic.hpp"
#include "hwsim/machine.hpp"
#include "workloads/spin_driver.hpp"

namespace iw::bench {

/// Cache-line-private IRQ counter cell (one per core: handlers on
/// different shards must not share a line).
struct alignas(64) IrqCell {
  std::uint64_t v{0};
};

struct DesWorkload {
  std::unique_ptr<hwsim::Machine> machine;
  std::unique_ptr<workloads::SpinDriver> driver;
  std::unique_ptr<hwsim::LapicTimer> timer;
  /// Heap storage so the handler closures stay valid across moves of
  /// this struct; cell i is written only by core i's handler.
  std::shared_ptr<std::vector<IrqCell>> irqs_by_core;

  [[nodiscard]] std::uint64_t total_irqs() const {
    std::uint64_t n = 0;
    for (const auto& c : *irqs_by_core) n += c.v;
    return n;
  }
};

/// Build the workload: `period`-cycle heartbeat broadcast + `step`-cycle
/// spin steps on every core. The machine never quiesces; drive it with
/// run_until or advance_n. `threads` is the host worker pool for
/// kParallelEpoch (ignored by the sequential schedulers).
inline DesWorkload make_des_workload(unsigned cores,
                                     hwsim::SchedulerKind sched,
                                     Cycles step = 200,
                                     Cycles period = 20'000,
                                     unsigned threads = 1) {
  DesWorkload w;
  hwsim::MachineConfig mc;
  mc.num_cores = cores;
  mc.scheduler = sched;
  mc.threads = threads;
  w.machine = std::make_unique<hwsim::Machine>(mc);
  w.driver = std::make_unique<workloads::SpinDriver>(step);
  w.irqs_by_core = std::make_shared<std::vector<IrqCell>>(cores);

  auto cells = w.irqs_by_core;
  for (unsigned i = 0; i < cores; ++i) {
    auto& core = w.machine->core(i);
    core.set_driver(w.driver.get());
    core.set_irq_handler(0x40, [cells](hwsim::Core& c, int) {
      c.consume(120);  // handler body: promotion-flag write + return
      ++(*cells)[c.id()].v;
      if (c.id() == 0) c.machine().broadcast_ipi(c, 0x40);
    });
  }
  w.timer = std::make_unique<hwsim::LapicTimer>(w.machine->core(0), 0x40);
  w.timer->periodic(period);
  return w;
}

}  // namespace iw::bench
