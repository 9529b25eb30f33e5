// "iwomp": the mini OpenMP runtime with the paper's four execution
// modes (§V-A, Fig. 6).
//
//   kLinux — the commodity baseline: user threads over the Linux stack
//            (futex barriers, housekeeping ticks, demand paging + small
//            TLB, syscall-priced primitives);
//   kRTK  — "runtime in kernel": the OpenMP runtime ported into
//            Nautilus; kernel threads, spin barriers, tickless cores,
//            identity paging;
//   kPIK  — "process in kernel": unmodified user-level code admitted
//            into the kernel via the CARAT/PIK path; performance is
//            RTK-like plus the residual (hoisted) guard cost;
//   kCCK  — "custom compilation for kernel": loops compile directly to
//            the kernel task framework; no barriers, per-task dispatch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "hwsim/machine.hpp"
#include "hwsim/sink.hpp"
#include "hwsim/snapshot.hpp"
#include "linuxmodel/futex.hpp"
#include "linuxmodel/linux_stack.hpp"
#include "mem/paging.hpp"
#include "nautilus/kernel.hpp"
#include "omp/barrier.hpp"
#include "workloads/miniapp.hpp"

namespace iw::obs {
class TraceRecorder;
class MetricsRegistry;
}  // namespace iw::obs

namespace iw::omp {

enum class OmpMode { kLinux, kRTK, kPIK, kCCK };

[[nodiscard]] const char* mode_name(OmpMode m);

struct OmpConfig {
  OmpMode mode{OmpMode::kRTK};
  unsigned num_threads{16};
  /// Iterations per worksharing chunk (at least 1). A chunk boundary is
  /// where a worker takes a due event (a noise burst, a tick) and, under
  /// schedule(dynamic), grabs again; static chunks that reach no due
  /// event share one DES step.
  std::uint64_t iter_chunk{64};
  /// schedule(dynamic, N): workers pull N-iteration chunks from a shared
  /// counter behind a lock (0 = schedule(static), the NAS default).
  std::uint64_t dynamic_chunk{0};
  /// PIK residual: cycles of hoisted-guard work per phase per worker.
  Cycles pik_phase_guard_cost{900};
  /// CCK: loop iterations per generated task.
  std::uint64_t cck_task_iters{512};
  /// Barrier wait policy on Linux: libomp's default is active spinning
  /// (KMP_BLOCKTIME); passive waiting goes through the futex path.
  bool linux_passive_wait{false};
  /// Spin-barrier hang detector: a worker spinning longer than this
  /// panics with a machine-state dump (0 = off). A lost heartbeat or a
  /// wedged core turns into a loud, attributable failure instead of an
  /// infinite silent spin.
  Cycles barrier_timeout{0};
  /// Fraction of workers found parked at a region start (they exceeded
  /// the active-spin window; in [0, 1]) and the serial per-wake cost
  /// the master pays to bring each back — the fork-join cost
  /// kernel-level runtimes do not have.
  double linux_park_fraction{0.5};
  Cycles linux_region_wake_cost{1'600};
  /// Linux OS-noise model: unsteerable kworker/softirq/IRQ activity
  /// periodically steals a core (median gap / median burst, in µs).
  /// Barriers amplify one core's delay to all — the classic OS-noise
  /// mechanism behind the growing-with-scale gap of Fig. 6. A gap of 0
  /// turns the noise off; while it is on, the burst must be positive
  /// and its lognormal mean below the gap's (LinuxNoise::kBurstSigma,
  /// kGapSigma): otherwise the bursts outrun the clock and the run
  /// never ends.
  double noise_gap_us{2'500.0};
  double noise_burst_us{5.0};
  hwsim::CostModel costs{hwsim::CostModel::knl()};
  std::uint64_t seed{42};
  /// DES scheduler for the run's machine (frontier index by default;
  /// kLinearScan reproduces the seed reference scheduler bit-for-bit).
  /// kParallelEpoch is refused by name: the runtime's barriers, work
  /// counters and the kernel's queues are shared across cores outside
  /// the IPI fabric.
  hwsim::SchedulerKind scheduler{hwsim::SchedulerKind::kFrontier};
  /// Observability sinks attached to the run's machine (null = off).
  /// Barrier wait times land in the omp.barrier.wait histogram.
  obs::TraceRecorder* tracer{nullptr};
  obs::MetricsRegistry* metrics{nullptr};
};

/// The Linux OS-noise generator (OmpConfig::noise_gap_us /
/// noise_burst_us): on every core an endless chain that waits a
/// lognormal gap, then steals a lognormal burst of CPU. One sink owns
/// the per-core Rng streams and saves them as a snapshot participant,
/// so a restored or hydrated machine replays the same noise. The chain
/// never quiesces; run with a stop predicate or a time bound.
class LinuxNoise final : public hwsim::EventSink,
                         public hwsim::SnapshotParticipant {
 public:
  /// Lognormal shapes of the gap and burst draws (their medians are the
  /// configured µs values).
  static constexpr double kGapSigma = 0.5;
  static constexpr double kBurstSigma = 0.8;

  /// Splits one Rng per core from the machine's, in core order, and
  /// posts each core's first burst one gap after time 0.
  LinuxNoise(hwsim::Machine& m, double gap_us, double burst_us);
  ~LinuxNoise();

  LinuxNoise(const LinuxNoise&) = delete;
  LinuxNoise& operator=(const LinuxNoise&) = delete;

  // EventSink: a burst came due on its core; the next gap is measured
  // from its scheduled time `at`.
  void on_core_event(hwsim::Core& core, Cycles at,
                     const hwsim::EventPayload& payload) override;

  // SnapshotParticipant: the per-core Rng states.
  void save_state(hwsim::SnapshotWriter& w) const override;
  void restore_state(hwsim::SnapshotReader& r) override;

 private:
  /// Draw core `core`'s next gap and post its burst one gap after
  /// `from`.
  void post_next(hwsim::Core& core, Cycles from);

  hwsim::Machine& machine_;
  double gap_us_;
  double burst_us_;
  std::vector<Rng> rngs_;
  hwsim::SinkId sink_id_{hwsim::kNoSink};
};

struct OmpResult {
  Cycles makespan{0};
  std::uint64_t barriers_passed{0};
  std::uint64_t tasks_executed{0};
  std::uint64_t syscalls{0};
  double tlb_miss_rate{0.0};
  /// DES advances the run's machine took (Machine::total_advances): the
  /// simulator's cost, not a modelled result. They include `folded`.
  std::uint64_t advances{0};
  /// Steps a worker ran inside an earlier step of its core: blind polls
  /// and static chunks (Machine::folded_steps). advances - folded is
  /// what the scheduler picked.
  std::uint64_t folded{0};
};

/// Run one mini-app under one mode on a fresh machine. Aborts with a
/// named diagnostic on an OmpConfig value outside its documented range.
OmpResult run_miniapp(const workloads::MiniApp& app, const OmpConfig& cfg);

/// Fig. 6 helper: relative performance of `mode` vs the Linux baseline
/// at the same thread count (>1 means faster than Linux).
double relative_to_linux(const workloads::MiniApp& app, OmpMode mode,
                         unsigned threads, const OmpConfig& base = {});

}  // namespace iw::omp
