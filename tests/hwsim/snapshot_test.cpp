// Restore-equivalence for deterministic checkpoint/restore.
//
// The contract under test: `snap = m.snapshot(); ... ; m.restore(snap);
// m.run_until(T)` is bit-identical — same traces, same state digests,
// same fault schedules and counters — to the uninterrupted run, across
// all three schedulers and fast-forward on/off.
// The workload's own dynamic state (spin budgets, beat tallies, the
// machine-queue tick count) rides along as a SnapshotParticipant, the
// same way kernel/recovery layers do.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hwsim/fault_plan.hpp"
#include "hwsim/lapic.hpp"
#include "hwsim/machine.hpp"
#include "hwsim/snapshot.hpp"
#include "nautilus/irq.hpp"
#include "obs/trace.hpp"

namespace iw {
namespace {

std::uint64_t trace_hash(const obs::TraceRecorder& tr) {
  std::ostringstream os;
  tr.write_text(os);
  const std::string s = os.str();
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct alignas(64) Cell {
  std::uint64_t v{0};
};

/// Fig3-style heartbeat workload (periodic LAPIC broadcast + certified
/// spin work + a machine-queue tick) whose mutable state is a snapshot
/// participant: restoring the machine restores the spin budgets, beat
/// tallies, and tick count along with it, so a replayed window cannot
/// double-count. All pending work is sink events / registered timers,
/// so a snapshot of this workload is v2-serializable and hydrates a
/// fresh machine carrying an identically-constructed SnapWorkload.
class SnapWorkload final : public hwsim::CoreDriver,
                           public hwsim::SnapshotParticipant,
                           public hwsim::EventSink {
 public:
  SnapWorkload(hwsim::Machine& m, Cycles step = 60,
               std::uint64_t steps = 1u << 30, Cycles period = 20'000)
      : machine_(m),
        step_(step),
        remaining_(m.num_cores(), steps),
        cells_(m.num_cores()) {
    for (unsigned i = 0; i < m.num_cores(); ++i) {
      auto& core = m.core(i);
      core.set_driver(this);
      core.set_irq_handler(0x40, [this](hwsim::Core& c, int) {
        c.consume(120);
        ++cells_[c.id()].v;
        if (c.id() == 0) c.machine().broadcast_ipi(c, 0x40);
      });
    }
    // The LapicTimer registers itself first, then the workload: the
    // registration order is part of the format and must be identical at
    // snapshot and restore — including on a FRESH machine hydrating a
    // serialized image, which is why construction order here is fixed.
    timer_ = std::make_unique<hwsim::LapicTimer>(m.core(0), 0x40);
    machine_.register_snapshot_participant(this);
    sink_id_ = machine_.register_event_sink(this);
    timer_->periodic(period);
    machine_.schedule_event(50'000, sink_id_);
  }
  ~SnapWorkload() {
    machine_.unregister_event_sink(sink_id_);
    machine_.unregister_snapshot_participant(this);
  }

  // EventSink: the machine-queue tick chain.
  void on_machine_event(hwsim::Machine& m, Cycles,
                        const hwsim::EventPayload&) override {
    ++mq_ticks_;
    m.schedule_event(m.now() + 50'000, sink_id_);
  }

  // CoreDriver: certified spin (fast-forward can skip it).
  bool runnable(hwsim::Core& core) override {
    return remaining_[core.id()] > 0;
  }
  void step(hwsim::Core& core) override {
    core.consume(step_);
    --remaining_[core.id()];
  }
  bool plan_fast_forward(hwsim::Core& core, Cycles horizon,
                         hwsim::FastForwardPlan* plan) override {
    const Cycles gap = horizon - core.clock();
    const std::uint64_t steps = std::min<std::uint64_t>(
        remaining_[core.id()], (gap + step_ - 1) / step_);
    if (steps == 0) return false;
    plan->end_clock = core.clock() + steps * step_;
    plan->steps = steps;
    return true;
  }
  void apply_fast_forward(hwsim::Core& core,
                          const hwsim::FastForwardPlan& plan) override {
    remaining_[core.id()] -= plan.steps;
  }

  // SnapshotParticipant.
  void save_state(hwsim::SnapshotWriter& w) const override {
    for (std::uint64_t r : remaining_) w.u64(r);
    for (const Cell& c : cells_) w.u64(c.v);
    w.u64(mq_ticks_);
  }
  void restore_state(hwsim::SnapshotReader& r) override {
    for (std::uint64_t& x : remaining_) x = r.u64();
    for (Cell& c : cells_) c.v = r.u64();
    mq_ticks_ = r.u64();
  }

  [[nodiscard]] std::uint64_t beats() const {
    std::uint64_t n = 0;
    for (const Cell& c : cells_) n += c.v;
    return n;
  }
  [[nodiscard]] std::uint64_t mq_ticks() const { return mq_ticks_; }

 private:
  hwsim::Machine& machine_;
  Cycles step_;
  std::vector<std::uint64_t> remaining_;
  std::vector<Cell> cells_;
  std::uint64_t mq_ticks_{0};
  std::unique_ptr<hwsim::LapicTimer> timer_;
  hwsim::SinkId sink_id_{hwsim::kNoSink};
};

struct SchedCell {
  const char* name;
  hwsim::SchedulerKind sched;
};

constexpr SchedCell kSchedMatrix[] = {
    {"frontier", hwsim::SchedulerKind::kFrontier},
    {"linear", hwsim::SchedulerKind::kLinearScan},
    {"parallel", hwsim::SchedulerKind::kParallelEpoch},
};

hwsim::MachineConfig make_config(const SchedCell& cell, bool ff,
                                 const char* faults, unsigned cores = 8) {
  hwsim::MachineConfig mc;
  mc.num_cores = cores;
  mc.scheduler = cell.sched;
  mc.threads = 2;
  mc.fast_forward.enabled = ff;
  if (faults != nullptr) {
    std::string err;
    EXPECT_TRUE(hwsim::FaultPlan::parse(faults, &mc.faults, &err)) << err;
  }
  return mc;
}

/// Everything the matrix compares per cell. Window boundaries are
/// deliberately unaligned with the beat/tick periods.
constexpr Cycles kMid = 203'000;
constexpr Cycles kEnd = 406'000;

struct CellResult {
  std::uint64_t prologue_hash{0};  // trace hash, [0, kMid)
  std::uint64_t window_hash{0};    // trace hash, [kMid, kEnd)
  std::uint64_t mid_digest{0};
  std::uint64_t end_digest{0};
  std::uint64_t beats{0};
  std::uint64_t mq_ticks{0};
  std::uint64_t advances{0};
  std::uint64_t ipis{0};
  std::uint64_t stalls{0};
};

/// Run the workload to kMid, snapshot, continue to kEnd (uninterrupted
/// leg), then restore and replay the same window (replay leg). Asserts
/// the two legs are bit-identical and returns the uninterrupted leg's
/// results for cross-cell comparison.
CellResult run_cell(const SchedCell& cell, bool ff, const char* faults,
                    const std::string& label) {
  hwsim::MachineConfig mc = make_config(cell, ff, faults);
  hwsim::Machine m(mc);
  SnapWorkload w(m);

  obs::TraceRecorder pre;
  m.set_tracer(&pre);
  EXPECT_TRUE(m.run_until(kMid)) << label;
  hwsim::Snapshot snap = m.snapshot();
  EXPECT_EQ(snap.at(), m.now()) << label;

  CellResult r;
  r.prologue_hash = trace_hash(pre);
  r.mid_digest = snap.digest();

  // Uninterrupted leg.
  obs::TraceRecorder t1;
  m.set_tracer(&t1);
  EXPECT_TRUE(m.run_until(kEnd)) << label;
  r.window_hash = trace_hash(t1);
  r.end_digest = m.snapshot().digest();
  r.beats = w.beats();
  r.mq_ticks = w.mq_ticks();
  r.advances = m.total_advances();
  r.ipis = m.total_ipis();
  r.stalls = m.fault_injector().counters().stalls;

  // Replay leg: rewind and re-run the same window.
  m.restore(snap);
  EXPECT_EQ(m.now(), snap.at()) << label;
  obs::TraceRecorder t2;
  m.set_tracer(&t2);
  EXPECT_TRUE(m.run_until(kEnd)) << label;
  EXPECT_EQ(trace_hash(t2), r.window_hash) << label << " (trace)";
  EXPECT_EQ(m.snapshot().digest(), r.end_digest) << label << " (digest)";
  EXPECT_EQ(w.beats(), r.beats) << label;
  EXPECT_EQ(w.mq_ticks(), r.mq_ticks) << label;
  EXPECT_EQ(m.total_advances(), r.advances) << label;
  EXPECT_EQ(m.total_ipis(), r.ipis) << label;
  EXPECT_EQ(m.fault_injector().counters().stalls, r.stalls) << label;

  // Cross-instance leg (format v2): serialize, hydrate a FRESH machine
  // carrying an identically-constructed workload, replay the window.
  // The deserialized snapshot and the donor's must digest equal, and
  // the fresh machine's window must be bit-identical to the donor's.
  const std::vector<std::uint64_t> image = snap.serialize();
  hwsim::Snapshot warm = hwsim::Snapshot::deserialize(image);
  EXPECT_EQ(warm.digest(), r.mid_digest) << label << " (image digest)";
  hwsim::Machine fresh(mc);
  SnapWorkload fw(fresh);
  fresh.restore(warm);
  EXPECT_EQ(fresh.now(), snap.at()) << label;
  obs::TraceRecorder t3;
  fresh.set_tracer(&t3);
  EXPECT_TRUE(fresh.run_until(kEnd)) << label;
  EXPECT_EQ(trace_hash(t3), r.window_hash) << label << " (hydrated trace)";
  EXPECT_EQ(fresh.snapshot().digest(), r.end_digest)
      << label << " (hydrated digest)";
  EXPECT_EQ(fw.beats(), r.beats) << label;
  EXPECT_EQ(fw.mq_ticks(), r.mq_ticks) << label;
  EXPECT_EQ(fresh.total_advances(), r.advances) << label;
  EXPECT_EQ(fresh.total_ipis(), r.ipis) << label;
  EXPECT_EQ(fresh.fault_injector().counters().stalls, r.stalls) << label;
  return r;
}

TEST(Snapshot, RestoreEquivalenceMatrix) {
  // The golden-digest matrix: scheduler × ff × fault plan. The
  // per-cell restore-equivalence assertions live in run_cell; across
  // cells, the prologue/window traces and the mid/end digests must all
  // agree (one schedule per scenario, however it is executed).
  const char* kPlans[] = {
      nullptr,
      "drop=0.05,delay=0.2:600,dup=0.05,jitter=0.2:300,spurious=0.05",
      "stall=0.3:200,window=100000-200000",
      "drop=0.10,stall=0.2:150,window=220000-280000",
  };
  for (const char* plan : kPlans) {
    const std::string plan_label = plan == nullptr ? "no-faults" : plan;
    CellResult baseline;
    bool have_baseline = false;
    for (const SchedCell& cell : kSchedMatrix) {
      for (const bool ff : {false, true}) {
        const std::string label =
            plan_label + " / " + cell.name + (ff ? " / ff" : " / full");
        const CellResult r = run_cell(cell, ff, plan, label);
        if (!have_baseline) {
          baseline = r;
          have_baseline = true;
          continue;
        }
        EXPECT_EQ(r.prologue_hash, baseline.prologue_hash) << label;
        EXPECT_EQ(r.window_hash, baseline.window_hash) << label;
        EXPECT_EQ(r.mid_digest, baseline.mid_digest) << label;
        EXPECT_EQ(r.end_digest, baseline.end_digest) << label;
        EXPECT_EQ(r.beats, baseline.beats) << label;
        EXPECT_EQ(r.mq_ticks, baseline.mq_ticks) << label;
        EXPECT_EQ(r.advances, baseline.advances) << label;
        EXPECT_EQ(r.ipis, baseline.ipis) << label;
        EXPECT_EQ(r.stalls, baseline.stalls) << label;
      }
    }
  }
}

TEST(Snapshot, CrossSchedulerHydrationFromOneImage) {
  // One donor captures a warmed image; EVERY execution strategy then
  // hydrates that image into a fresh machine and replays the same
  // window. Equality across the matrix means the serialized form is
  // execution-strategy-neutral — the property the scenario server
  // leans on when it picks a scheduler per cell.
  const char* plan = "drop=0.05,delay=0.2:600,dup=0.05";
  hwsim::Machine donor(make_config(kSchedMatrix[0], false, plan));
  SnapWorkload dw(donor);
  ASSERT_TRUE(donor.run_until(kMid));
  const std::vector<std::uint64_t> image = donor.snapshot().serialize();

  obs::TraceRecorder t1;
  donor.set_tracer(&t1);
  ASSERT_TRUE(donor.run_until(kEnd));
  const std::uint64_t window = trace_hash(t1);
  const std::uint64_t end_digest = donor.snapshot().digest();

  for (const SchedCell& cell : kSchedMatrix) {
    for (const bool ff : {false, true}) {
      const hwsim::Snapshot warm = hwsim::Snapshot::deserialize(image);
      hwsim::Machine child(make_config(cell, ff, plan));
      SnapWorkload cw(child);
      child.restore(warm);
      obs::TraceRecorder t2;
      child.set_tracer(&t2);
      ASSERT_TRUE(child.run_until(kEnd));
      EXPECT_EQ(trace_hash(t2), window) << cell.name << (ff ? "/ff" : "");
      EXPECT_EQ(child.snapshot().digest(), end_digest)
          << cell.name << (ff ? "/ff" : "");
    }
  }
}

TEST(Snapshot, RestoreTwiceReplaysIdentically) {
  hwsim::MachineConfig mc = make_config(kSchedMatrix[0], false,
                                        "drop=0.08,spurious=0.04");
  hwsim::Machine m(mc);
  SnapWorkload w(m);
  ASSERT_TRUE(m.run_until(kMid));
  hwsim::Snapshot snap = m.snapshot();

  std::uint64_t hashes[3];
  std::uint64_t digests[3];
  for (int leg = 0; leg < 3; ++leg) {
    if (leg > 0) m.restore(snap);
    obs::TraceRecorder tr;
    m.set_tracer(&tr);
    ASSERT_TRUE(m.run_until(kEnd));
    hashes[leg] = trace_hash(tr);
    digests[leg] = m.snapshot().digest();
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[1], hashes[2]);
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[1], digests[2]);
}

TEST(Snapshot, SnapshotItselfDoesNotPerturbTheRun) {
  // A run with a mid-point snapshot must produce the same trace as a
  // run without one (snapshot() reads, never draws or schedules).
  const char* plan = "drop=0.05,delay=0.2:600,spurious=0.05";
  std::uint64_t with_snap = 0;
  std::uint64_t without = 0;
  {
    hwsim::Machine m(make_config(kSchedMatrix[0], false, plan));
    SnapWorkload w(m);
    obs::TraceRecorder tr;
    m.set_tracer(&tr);
    EXPECT_TRUE(m.run_until(kMid));
    (void)m.snapshot();
    EXPECT_TRUE(m.run_until(kEnd));
    with_snap = trace_hash(tr);
  }
  {
    hwsim::Machine m(make_config(kSchedMatrix[0], false, plan));
    SnapWorkload w(m);
    obs::TraceRecorder tr;
    m.set_tracer(&tr);
    EXPECT_TRUE(m.run_until(kMid));
    EXPECT_TRUE(m.run_until(kEnd));
    without = trace_hash(tr);
  }
  EXPECT_EQ(with_snap, without);
}

// --------------------------------------------------------------- watchdog

TEST(Snapshot, WatchdogArmedAcrossSnapshotCannotFireStale) {
  // Core 1 is wedged (masked with a pending IRQ), so the armed watchdog
  // fires every period. Snapshot mid-chain; then deliberately pollute
  // the generation counter with a disarm + re-arm (which schedules a
  // NEW check chain) before restoring. The restore must bring back the
  // old generation AND drop the post-snapshot chain, so the replay sees
  // exactly the original check cadence — no stale fire, no dead chain.
  constexpr Cycles kSnapAt = 35'000;
  constexpr Cycles kStop = 95'000;
  hwsim::MachineConfig mc;
  mc.num_cores = 4;
  hwsim::Machine m(mc);
  nautilus::CoreWatchdog wd(m, /*period=*/10'000);
  m.core(1).set_interrupts_enabled(false);
  m.core(1).post_irq(5'000, 0x21);
  wd.arm();

  ASSERT_TRUE(m.run_until(kSnapAt));
  hwsim::Snapshot snap = m.snapshot();
  const std::uint64_t fires_at_snap = wd.fires();

  obs::TraceRecorder t1;
  m.set_tracer(&t1);
  ASSERT_TRUE(m.run_until(kStop));
  const std::uint64_t fires_uninterrupted = wd.fires();
  const std::uint64_t hash_uninterrupted = trace_hash(t1);
  EXPECT_GT(fires_uninterrupted, fires_at_snap);

  // Pollute: bump the generation and enqueue a new chain post-snapshot.
  wd.disarm();
  wd.arm();

  m.restore(snap);
  EXPECT_TRUE(wd.armed());
  EXPECT_EQ(wd.fires(), fires_at_snap);
  obs::TraceRecorder t2;
  m.set_tracer(&t2);
  ASSERT_TRUE(m.run_until(kStop));
  EXPECT_EQ(wd.fires(), fires_uninterrupted);
  EXPECT_EQ(trace_hash(t2), hash_uninterrupted);
}

TEST(Snapshot, WatchdogDisarmedAtSnapshotStaysDisarmed) {
  hwsim::MachineConfig mc;
  mc.num_cores = 2;
  hwsim::Machine m(mc);
  nautilus::CoreWatchdog wd(m, 10'000);
  m.core(1).set_interrupts_enabled(false);
  m.core(1).post_irq(2'000, 0x21);
  ASSERT_TRUE(m.run_until(5'000));
  hwsim::Snapshot snap = m.snapshot();  // never armed
  wd.arm();
  ASSERT_TRUE(m.run_until(40'000));
  EXPECT_GT(wd.fires(), 0u);
  m.restore(snap);
  EXPECT_FALSE(wd.armed());
  EXPECT_EQ(wd.fires(), 0u);
  ASSERT_TRUE(m.run_until(40'000));
  // The post-snapshot arm()'s chain was dropped with the queues: a
  // disarmed watchdog must stay silent through the replay.
  EXPECT_EQ(wd.fires(), 0u);
}

// ------------------------------------------------------------ reliable IPI

TEST(Snapshot, ReliableIpiRetriesInFlightAcrossSnapshot) {
  // A lossy fabric with retry enabled: the snapshot lands between a
  // drop and its backoff retries, so the retry closures are in-flight
  // in the core callback inboxes at capture time. The replay must
  // re-run them identically (counters and traces).
  constexpr Cycles kSnapAt = 41'000;
  constexpr Cycles kStop = 120'000;
  hwsim::MachineConfig mc;
  mc.num_cores = 2;
  std::string err;
  ASSERT_TRUE(hwsim::FaultPlan::parse("drop=0.5", &mc.faults, &err)) << err;
  hwsim::Machine m(mc);
  nautilus::ReliableIpi rel(m);

  // Periodic sends from core 0 to core 1; the delivery tally and the
  // send-chain cadence must ride the snapshot like any workload state.
  // The send chain is a sink event so the snapshot stays v2-portable.
  struct SendLoop final : hwsim::SnapshotParticipant, hwsim::EventSink {
    explicit SendLoop(hwsim::Machine& m, nautilus::ReliableIpi& rel)
        : machine(m), rel(rel) {
      machine.register_snapshot_participant(this);
      sink_id = machine.register_event_sink(this);
      machine.core(1).set_irq_handler(0x50, [this](hwsim::Core&, int) {
        ++delivered;
      });
      machine.core(0).post_event(1'000, sink_id);
    }
    ~SendLoop() {
      machine.unregister_event_sink(sink_id);
      machine.unregister_snapshot_participant(this);
    }
    void on_core_event(hwsim::Core& core, Cycles,
                       const hwsim::EventPayload&) override {
      ++sends;
      rel.send(core, 1, 0x50);
      core.post_event(core.clock() + 7'000, sink_id);
    }
    void save_state(hwsim::SnapshotWriter& w) const override {
      w.u64(sends);
      w.u64(delivered);
    }
    void restore_state(hwsim::SnapshotReader& r) override {
      sends = r.u64();
      delivered = r.u64();
    }
    hwsim::Machine& machine;
    nautilus::ReliableIpi& rel;
    hwsim::SinkId sink_id{hwsim::kNoSink};
    std::uint64_t sends{0};
    std::uint64_t delivered{0};
  } loop(m, rel);

  ASSERT_TRUE(m.run_until(kSnapAt));
  hwsim::Snapshot snap = m.snapshot();

  obs::TraceRecorder t1;
  m.set_tracer(&t1);
  ASSERT_TRUE(m.run_until(kStop));
  const std::uint64_t retries = rel.retries();
  const std::uint64_t exhausted = rel.exhausted();
  const std::uint64_t delivered = loop.delivered;
  const std::uint64_t hash = trace_hash(t1);
  EXPECT_GT(retries, 0u);  // the plan is lossy enough to exercise retry

  m.restore(snap);
  obs::TraceRecorder t2;
  m.set_tracer(&t2);
  ASSERT_TRUE(m.run_until(kStop));
  EXPECT_EQ(rel.retries(), retries);
  EXPECT_EQ(rel.exhausted(), exhausted);
  EXPECT_EQ(loop.delivered, delivered);
  EXPECT_EQ(trace_hash(t2), hash);
}

// ----------------------------------------------- fault recording / scripts

TEST(Snapshot, FaultScriptReplayMatchesRecording) {
  const char* spec =
      "drop=0.3,delay=0.25:600,dup=0.1,jitter=0.2:300,spurious=0.05,"
      "stall=0.01:200";
  hwsim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(hwsim::FaultPlan::parse(spec, &plan, &err)) << err;

  // Probabilistic run with recording on.
  std::uint64_t prob_hash = 0;
  hwsim::FaultInjector::Counters prob_counters;
  std::vector<hwsim::FaultEvent> events;
  {
    hwsim::Machine m(make_config(kSchedMatrix[0], false, spec));
    // Recording (and, on the replay side, scripting) must be configured
    // before the first fault opportunity — workload construction arms
    // timers, which already draws from the injector.
    m.fault_injector().set_recording(true);
    SnapWorkload w(m);
    obs::TraceRecorder tr;
    m.set_tracer(&tr);
    ASSERT_TRUE(m.run_until(kMid));
    prob_hash = trace_hash(tr);
    prob_counters = m.fault_injector().counters();
    events = m.fault_injector().recorded_events();
  }
  ASSERT_FALSE(events.empty());

  // Scripted replay of the exact recorded schedule: no RNG draws, same
  // trace, same counters.
  {
    hwsim::Machine m(make_config(kSchedMatrix[0], false, nullptr));
    m.fault_injector().set_script(plan, events);
    SnapWorkload w(m);
    obs::TraceRecorder tr;
    m.set_tracer(&tr);
    ASSERT_TRUE(m.run_until(kMid));
    EXPECT_EQ(trace_hash(tr), prob_hash);
    const auto c = m.fault_injector().counters();
    EXPECT_EQ(c.ipis_dropped, prob_counters.ipis_dropped);
    EXPECT_EQ(c.ipis_delayed, prob_counters.ipis_delayed);
    EXPECT_EQ(c.ipis_duplicated, prob_counters.ipis_duplicated);
    EXPECT_EQ(c.timer_perturbed, prob_counters.timer_perturbed);
    EXPECT_EQ(c.spurious_irqs, prob_counters.spurious_irqs);
    EXPECT_EQ(c.stalls, prob_counters.stalls);
  }

  // An empty script under the same plan is a clean run: identical to
  // faults-off entirely.
  std::uint64_t clean_hash = 0;
  {
    hwsim::Machine m(make_config(kSchedMatrix[0], false, nullptr));
    SnapWorkload w(m);
    obs::TraceRecorder tr;
    m.set_tracer(&tr);
    ASSERT_TRUE(m.run_until(kMid));
    clean_hash = trace_hash(tr);
  }
  {
    hwsim::Machine m(make_config(kSchedMatrix[0], false, nullptr));
    m.fault_injector().set_script(plan, {});
    SnapWorkload w(m);
    obs::TraceRecorder tr;
    m.set_tracer(&tr);
    ASSERT_TRUE(m.run_until(kMid));
    EXPECT_EQ(trace_hash(tr), clean_hash);
    const auto c = m.fault_injector().counters();
    EXPECT_EQ(c.ipis_dropped, 0u);
    EXPECT_EQ(c.stalls, 0u);
  }
}

TEST(Snapshot, FaultScriptSubsetKeepsOnlySelectedEvents) {
  // ddmin semantics: a subset schedule applies exactly the selected
  // events (opportunity indices are stable because they count every
  // opportunity unconditionally).
  const char* spec = "drop=0.4";
  hwsim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(hwsim::FaultPlan::parse(spec, &plan, &err)) << err;
  std::vector<hwsim::FaultEvent> events;
  {
    hwsim::Machine m(make_config(kSchedMatrix[0], false, spec));
    m.fault_injector().set_recording(true);
    SnapWorkload w(m);
    ASSERT_TRUE(m.run_until(kMid));
    events = m.fault_injector().recorded_events();
  }
  ASSERT_GT(events.size(), 4u);
  std::vector<hwsim::FaultEvent> half(events.begin(),
                                      events.begin() + events.size() / 2);
  hwsim::Machine m(make_config(kSchedMatrix[0], false, nullptr));
  m.fault_injector().set_script(plan, half);
  SnapWorkload w(m);
  ASSERT_TRUE(m.run_until(kMid));
  EXPECT_EQ(m.fault_injector().counters().ipis_dropped, half.size());
}

// ------------------------------------------------------------ image format

/// Index of the queue section (its first word is the machine-queue
/// length) in a v2 image: past the five header words and the two
/// length-prefixed word sections.
std::size_t queue_section(const std::vector<std::uint64_t>& image) {
  const std::size_t ephemeral = 6 + image[5];
  return ephemeral + 1 + image[ephemeral];
}

TEST(Snapshot, PackedQueueRoundTripPreservesContentsAndDigest) {
  // Capture with populated packed queues (machine sink events, core IRQ
  // inboxes, timer fires in the callback inboxes), deserialize, hydrate
  // a fresh machine and capture it again: image and digest must come
  // back word for word, even though the donor's heap/slab layout
  // reflects its push history and the fresh machine's reflects the
  // order restore() pushed the decoded records in.
  const hwsim::MachineConfig mc = make_config(kSchedMatrix[0], false, nullptr);
  hwsim::Machine m(mc);
  SnapWorkload w(m);
  ASSERT_TRUE(m.run_until(kMid));
  const hwsim::Snapshot donor = m.snapshot();
  const std::vector<std::uint64_t> image = donor.serialize();
  ASSERT_GT(image[queue_section(image)], 0u);  // the machine tick chain

  const hwsim::Snapshot copy = hwsim::Snapshot::deserialize(image);
  EXPECT_EQ(copy.serialize(), image);
  EXPECT_EQ(copy.digest(), donor.digest());
  hwsim::Machine fresh(mc);
  SnapWorkload fw(fresh);
  fresh.restore(copy);
  EXPECT_EQ(fresh.snapshot().serialize(), image);
}

/// Image of a bare 2-core machine whose core 0 holds one pending IRQ
/// (vector 0x40), and the index of that IRQ's vector word. Layout:
/// magic, version, fingerprint, at, participants, |words|, words,
/// |ephemeral|, ephemeral, |machine queue| (0), |cores|, then core 0's
/// |irq| (1) and its {time, seq, origin, vector, ipi}.
std::vector<std::uint64_t> image_with_pending_irq(std::size_t* vector_at) {
  hwsim::MachineConfig mc;
  mc.num_cores = 2;
  hwsim::Machine m(mc);
  m.core(0).post_irq(1'000, 0x40);
  std::vector<std::uint64_t> image = m.snapshot().serialize();
  *vector_at = queue_section(image) + 6;
  return image;
}

TEST(Snapshot, DeserializeRejectsOutOfRangeVector) {
  std::size_t at = 0;
  const std::vector<std::uint64_t> good = image_with_pending_irq(&at);
  ASSERT_EQ(good[at], 0x40u);
  EXPECT_EQ(hwsim::Snapshot::deserialize(good).serialize(), good);
  for (const std::int64_t bad : {std::int64_t{256}, std::int64_t{-1},
                                 std::int64_t{0x1'0000'0040}}) {
    std::vector<std::uint64_t> image = good;
    image[at] = static_cast<std::uint64_t>(bad);
    EXPECT_DEATH((void)hwsim::Snapshot::deserialize(image),
                 "queued IRQ vector outside") << bad;
  }
}

/// Image of a bare 2-core machine holding one machine-queue event and
/// one core-0 event, both for a registered sink, and the index of each
/// sink word. After the state sections the layout is |machine queue|
/// (1), {time, seq, sink, payload[4]}, |cores|, then core 0's |irq| (0),
/// |callbacks| (1) and {time, seq, gen, ideal, timer_sink, sink,
/// payload[4]}.
struct SinkWords {
  std::vector<std::uint64_t> image;
  std::size_t machine_sink{0};
  std::size_t core_timer_sink{0};
  std::size_t core_sink{0};
};

SinkWords image_with_pending_sink_events() {
  struct NullSink final : hwsim::EventSink {
    void on_machine_event(hwsim::Machine&, Cycles,
                          const hwsim::EventPayload&) override {}
    void on_core_event(hwsim::Core&, Cycles,
                       const hwsim::EventPayload&) override {}
  };
  NullSink sink;
  hwsim::MachineConfig mc;
  mc.num_cores = 2;
  hwsim::Machine m(mc);
  const hwsim::SinkId id = m.register_event_sink(&sink);
  m.schedule_event(1'000, id);
  m.core(0).post_event(1'000, id);
  SinkWords out;
  out.image = m.snapshot().serialize();
  const std::size_t mq = queue_section(out.image);
  out.machine_sink = mq + 3;
  out.core_timer_sink = mq + 15;
  out.core_sink = mq + 16;
  return out;
}

TEST(Snapshot, DeserializeRejectsSinkWordsWiderThan32Bits) {
  const SinkWords good = image_with_pending_sink_events();
  ASSERT_EQ(good.image[good.machine_sink], 0u);
  ASSERT_EQ(good.image[good.core_timer_sink], hwsim::kNoSink);
  ASSERT_EQ(good.image[good.core_sink], 0u);
  ASSERT_EQ(good.image[good.machine_sink - 3], 1u);  // |machine queue|
  EXPECT_EQ(hwsim::Snapshot::deserialize(good.image).serialize(),
            good.image);
  // 2^32 would truncate onto sink 0, a live sink, and dispatch there.
  const std::uint64_t wide = std::uint64_t{1} << 32;
  auto corrupt = [&good, wide](std::size_t i) {
    std::vector<std::uint64_t> image = good.image;
    image[i] = wide;
    return image;
  };
  EXPECT_DEATH((void)hwsim::Snapshot::deserialize(corrupt(good.machine_sink)),
               "machine-queue sink word exceeds 32 bits");
  EXPECT_DEATH(
      (void)hwsim::Snapshot::deserialize(corrupt(good.core_timer_sink)),
      "callback-inbox timer-sink word exceeds 32 bits");
  EXPECT_DEATH((void)hwsim::Snapshot::deserialize(corrupt(good.core_sink)),
               "callback-inbox sink word exceeds 32 bits");
}

TEST(Snapshot, DeserializeRejectsMachineRecordWithoutSink) {
  const SinkWords good = image_with_pending_sink_events();
  std::vector<std::uint64_t> image = good.image;
  image[good.machine_sink] = hwsim::kNoSink;
  EXPECT_DEATH((void)hwsim::Snapshot::deserialize(image),
               "machine-queue record names no sink");
}

TEST(Snapshot, DeserializeRejectsCoreRecordWithNeitherOrBothSinks) {
  const SinkWords good = image_with_pending_sink_events();
  std::vector<std::uint64_t> neither = good.image;
  neither[good.core_sink] = hwsim::kNoSink;
  EXPECT_DEATH((void)hwsim::Snapshot::deserialize(neither),
               "must name exactly one of a timer sink and an event sink");
  std::vector<std::uint64_t> both = good.image;
  both[good.core_timer_sink] = 0;
  EXPECT_DEATH((void)hwsim::Snapshot::deserialize(both),
               "must name exactly one of a timer sink and an event sink");
}

TEST(Snapshot, DeserializeRejectsLengthsPastTheImage) {
  std::size_t at = 0;
  const std::vector<std::uint64_t> good = image_with_pending_irq(&at);
  const std::size_t words_len = 5;
  const std::size_t cores_len = at - 5;
  const std::size_t irq_len = at - 4;
  ASSERT_EQ(good[cores_len], 2u);
  ASSERT_EQ(good[irq_len], 1u);
  auto corrupt = [&good](std::size_t i, std::uint64_t v) {
    std::vector<std::uint64_t> image = good;
    image[i] = v;
    return image;
  };
  EXPECT_DEATH(
      (void)hwsim::Snapshot::deserialize(corrupt(words_len, 1ULL << 61)),
      "word-section length exceeds the remaining image");
  EXPECT_DEATH(
      (void)hwsim::Snapshot::deserialize(corrupt(words_len, good.size())),
      "length exceeds the remaining image");
  EXPECT_DEATH(
      (void)hwsim::Snapshot::deserialize(corrupt(cores_len, 1ULL << 40)),
      "core count exceeds the remaining image");
  EXPECT_DEATH(
      (void)hwsim::Snapshot::deserialize(corrupt(irq_len, 1ULL << 62)),
      "IRQ-inbox length exceeds the remaining image");
}

TEST(Snapshot, DigestIsStableAndImageIsVersioned) {
  hwsim::Machine m(make_config(kSchedMatrix[0], false, nullptr));
  SnapWorkload w(m);
  ASSERT_TRUE(m.run_until(60'000));
  const hwsim::Snapshot a = m.snapshot();
  const hwsim::Snapshot b = m.snapshot();
  EXPECT_EQ(a.digest(), b.digest());  // snapshot() is a pure read
  const std::vector<std::uint64_t> image = a.serialize();
  EXPECT_EQ(image, b.serialize());
  ASSERT_GE(image.size(), 2u);
  EXPECT_EQ(image[0], hwsim::Snapshot::kMagic);
  EXPECT_EQ(image[1], hwsim::Snapshot::kFormatVersion);
}

TEST(Snapshot, RejectsPendingFireOfUnregisteredTimer) {
  // Timer devices self-register; a TimerSink that did not has no id the
  // image could record its pending fire by.
  struct Unregistered final : hwsim::TimerSink {
    void on_timer(hwsim::Core&, Cycles, std::uint64_t) override {}
  };
  Unregistered timer;
  hwsim::MachineConfig mc;
  mc.num_cores = 2;
  hwsim::Machine m(mc);
  m.core(1).post_timer(1'000, &timer, 0);
  EXPECT_DEATH((void)m.snapshot(),
               "cannot serialize a pending fire for an unregistered "
               "TimerSink");
}

/// FNV-1a over the bytes of `words`, low byte first (the digest's mix).
std::uint64_t fnv_words(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t w : words) {
    for (int i = 0; i < 8; ++i, w >>= 8) {
      h ^= w & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(Snapshot, ImageFormatIsPinned) {
  // A fixed 4-core machine captured with every record kind of the image
  // pending: a machine sink event; IPIs in two IRQ inboxes, the one on
  // vector 0x41 delayed and duplicated by the fault plan; a LAPIC timer
  // fire and a core sink event in the callback inboxes; and a
  // participant blob. The constants pin the v2 encoding and the digest:
  // stored images and every pinned digest depend on both.
  struct Blob final : hwsim::SnapshotParticipant, hwsim::EventSink {
    void save_state(hwsim::SnapshotWriter& w) const override {
      w.u64(0xB10B);
      w.u64(7);
    }
    void restore_state(hwsim::SnapshotReader& r) override {
      (void)r.u64();
      (void)r.u64();
    }
    void on_machine_event(hwsim::Machine&, Cycles,
                          const hwsim::EventPayload&) override {}
    void on_core_event(hwsim::Core&, Cycles,
                       const hwsim::EventPayload&) override {}
  };
  Blob blob;
  hwsim::MachineConfig mc;
  mc.num_cores = 4;
  mc.seed = 7;
  std::string err;
  ASSERT_TRUE(hwsim::FaultPlan::parse("delay=1:500,dup=1:300,vector=65",
                                      &mc.faults, &err))
      << err;
  hwsim::Machine m(mc);
  m.register_snapshot_participant(&blob);
  const hwsim::SinkId sink = m.register_event_sink(&blob);
  hwsim::LapicTimer timer(m.core(0), 0x30);
  timer.periodic(50'000);
  m.schedule_event(70'000, sink, hwsim::EventPayload{{1, 2, 3, 4}});
  m.core(3).post_event(60'000, sink, hwsim::EventPayload{{5, 6, 7, 8}});
  EXPECT_EQ(m.post_ipi(1, 0x40, 100), hwsim::IpiStatus::kQueued);
  EXPECT_EQ(m.post_ipi(2, 0x41, 100), hwsim::IpiStatus::kQueuedDelayed);
  EXPECT_EQ(m.fault_injector().counters().ipis_duplicated, 1u);

  const hwsim::Snapshot s = m.snapshot();
  EXPECT_EQ(fnv_words(s.serialize()), 0x2fe37b32d8b8d249ULL);
  EXPECT_EQ(s.digest(), 0x399c93764a843d3fULL);
}

}  // namespace
}  // namespace iw
