// The simulated machine: a set of cores, a global event queue for
// non-core entities (devices), an IPI fabric, and the conservative
// min-timestamp DES loop.
//
// Scheduling: the loop always advances the entity (core or machine
// queue) with the globally smallest next-action timestamp. The
// interchangeable schedulers produce bit-identical event orderings:
//  * kFrontier (default) — a winner (tournament) tree over per-core
//    cached next_action_time values, sized once at construction. The
//    stepped core's leaf is rewritten in place from the time its
//    advance() returns; cores dirtied from another context re-register
//    through dirty-marking invalidation hooks and are rewritten at the
//    next peek. Each rewrite replays one leaf-to-root path, so one
//    simulated event costs O(log N) instead of an O(N) rescan, at every
//    core count.
//  * kLinearScan — the original reference scheduler: a full uncached
//    scan per advance. Kept as the golden semantics for equivalence
//    tests and as the baseline for bench/des_throughput.
//  * kParallelEpoch — conservative parallel discrete-event simulation:
//    virtual time advances in epochs bounded by the cores' send
//    horizons plus the minimum cross-core communication latency (the
//    IPI fabric latency is the lookahead; fault plans only ever ADD
//    latency, so the bound is safe under injection). A core's send
//    horizon is its clock, or its next delivery when its driver
//    certifies its steps inert. Within an epoch every core's events are
//    independent by construction, so shards drain without
//    synchronization and all cross-core traffic is buffered and merged
//    deterministically at the epoch barrier. Traces, metrics counters,
//    fault schedules and final machine state are bit-identical to the
//    sequential schedulers (see src/hwsim/parallel.cpp for the
//    argument). Every core is its own shard, so the workload must be
//    shard-safe; layers that share state across cores outside the
//    fabric refuse this scheduler by name (require_sequential).
//
// Determinism across schedulers rests on two provenance rules:
//  1. Event sequence numbers encode (per-source counter, source id)
//     rather than a global creation order, so an inbox's pop order for
//     same-time events is a pure function of *which context posted
//     what* — never of how the scheduler interleaved contexts.
//  2. Fault-plan RNG draws come from per-source streams and are drawn
//     eagerly in the acting context (see FaultInjector).
// "Source" is the executing entity: 0 for the machine queue and any
// code outside the DES loop (setup), core c + 1 for core c.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "hwsim/core.hpp"
#include "hwsim/cost_model.hpp"
#include "hwsim/event_queue.hpp"
#include "hwsim/fault_plan.hpp"
#include "substrate/substrate.hpp"

namespace iw::obs {
class TraceRecorder;
class MetricsRegistry;
}  // namespace iw::obs

namespace iw::hwsim {

class IpiOutbox;
class ParallelEngine;
class Snapshot;
class SnapshotParticipant;

/// kParallelEpoch runs one shard per core and requires shard-safe
/// workloads: during a parallel epoch a core context may post events
/// only to itself; cross-core traffic must go through the IPI fabric
/// (send_ipi/broadcast_ipi/post_ipi), which is buffered and merged at
/// the barrier. Violations are caught by IW_ASSERT. The one exception
/// is a declared serial core (declare_serial_core): its events run only
/// in serial deliveries, so its handlers may touch every core — the
/// heartbeat supervisor on CPU 0 does.
enum class SchedulerKind : std::uint8_t {
  kFrontier,       // O(log N) incremental frontier index (default)
  kLinearScan,     // O(N) per-advance scan (seed reference semantics)
  kParallelEpoch,  // epoch-synchronized conservative parallel DES
};

/// A vestige: kParallelEpoch always runs one shard per core. The enum
/// and MachineConfig::shard_policy remain only because
/// perfbench/parallel_4k.cpp assigns kPerCore, and only a benchmark
/// change may edit perfbench/; nothing reads the field.
enum class ShardPolicy : std::uint8_t {
  kPerCore,
};

/// Outcome of one IPI delivery attempt. Callers that need reliable
/// delivery (nautilus::ReliableIpi) retry on kDropped; kQueuedDelayed is
/// a delivered-but-late attempt (the fault plan stretched the fabric).
enum class IpiStatus : std::uint8_t {
  kQueued,
  kQueuedDelayed,
  kDropped,
};

/// A fabric delivery buffered during a per-core epoch drain: the IRQ
/// event is fully formed in the sender's context (sequence number and
/// fault fate already drawn) and lands in `to`'s inbox at the barrier.
struct PendingIpi {
  CoreId to{0};
  IrqEvent ev;
};

/// Selectable-fidelity fast-forward (the MosaicSim-style knob): when
/// the machine can prove a window is quiet — no machine-queue event, no
/// deliverable inbox entry, no in-flight IPI, and no armed fault-plan
/// stall before a horizon T (prove_quiet_until) — and every runnable
/// core's driver certifies its steps in the window as inert
/// (CoreDriver::plan_fast_forward), the cores jump to T analytically in
/// O(cores) instead of event-stepping. The skip is *exact*, not
/// approximate: traces, metrics, fault schedules, per-core clocks and
/// step counts, and the advance watchdog are all bit-identical with
/// fast-forward on or off (tests/hwsim/fast_forward_test.cpp holds the
/// equivalence matrix), so enabling it is purely a wall-clock choice.
struct FastForwardPolicy {
  bool enabled{false};
  /// Emit an "ff.skip" span per skipped per-core window so Chrome
  /// traces show the analytically-covered region explicitly. Off by
  /// default: the spans are the one observable artifact skipping may
  /// add, so digest comparisons run without them.
  bool trace_skips{false};
  /// Every Nth provable window is re-run in full fidelity instead of
  /// skipped, asserting the analytic plans match the stepped trajectory
  /// exactly and that the window was truly inert (no sequence or fault
  /// draws, no deliveries, no machine events, no trace records).
  /// 0 = off, 1 = audit every window (full fidelity + the proof cost).
  std::uint64_t paranoid_interval{0};
};

/// Available-parallelism and spill totals of the per-core epoch engine,
/// over its unbudgeted epochs. Per epoch, work is the sum of shard
/// advances and span the most advances any one shard executed plus the
/// deliveries merged serially at the barrier, so work / span bounds the
/// speedup host threads can give. All three depend only on the
/// simulated schedule — not on host threads, stealing or timing — and
/// are off-digest (no snapshot carries them).
struct ParallelTotals {
  std::uint64_t work{0};
  std::uint64_t span{0};
  /// Outbox deliveries past a target's fixed slots in one epoch (the
  /// mutex-guarded spill path).
  std::uint64_t spills{0};
};

struct MachineConfig {
  unsigned num_cores{16};
  CostModel costs{CostModel::knl()};
  std::uint64_t seed{42};
  /// Hard stop: abort the run if virtual time passes this (0 = unlimited).
  Cycles max_time{0};
  /// Hard stop: abort after this many core advances (0 = unlimited).
  std::uint64_t max_advances{0};
  SchedulerKind scheduler{SchedulerKind::kFrontier};
  /// Read by nothing (see ShardPolicy): kept for perfbench's assignment.
  ShardPolicy shard_policy{ShardPolicy::kPerCore};
  /// Host worker threads for kParallelEpoch (clamped to [1, num_cores];
  /// 1 = drain all shards on the calling thread, spawning nothing).
  /// Thread count never affects results.
  unsigned threads{1};
  /// Cross-check every frontier decision against a full linear scan and
  /// abort on divergence. O(N) per advance — a debugging aid for driver
  /// invalidation bugs, not for production runs.
  bool paranoid_frontier{false};
  /// Analytic skip-ahead over proven-quiet windows (off by default;
  /// results are bit-identical either way — see FastForwardPolicy).
  FastForwardPolicy fast_forward;
  /// Deterministic fault injection (disabled by default: zero draws,
  /// traces bit-identical to a fault-free build).
  FaultPlan faults;
  /// Explicit seed for the fault streams (0 = derive from `seed`). Lets a
  /// sweep vary the fault schedule while the workload stays fixed.
  std::uint64_t fault_seed{0};
};

/// The machine IS a stack substrate (the paper's point, made literal):
/// the DES's core clocks, observability sinks, RNG streams, and fault
/// injector are the one fabric every higher-layer model runs on. Final
/// so the hot-path accessors (now, tracer) devirtualize at call sites
/// that hold a Machine.
class Machine final : public substrate::StackSubstrate {
 public:
  explicit Machine(MachineConfig cfg);
  ~Machine() override;

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] unsigned num_cores() const override {
    return static_cast<unsigned>(cores_.size());
  }
  [[nodiscard]] Core& core(CoreId id) { return *cores_[id]; }
  [[nodiscard]] const CostModel& costs() const { return cfg_.costs; }
  [[nodiscard]] const MachineConfig& config() const { return cfg_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Abort, naming `layer`, when `sched` is kParallelEpoch. A layer that
  /// shares state across cores outside the IPI fabric calls this when it
  /// binds to a machine: per-core shards would race on that state and
  /// give wrong results without any assertion firing. The message says
  /// to use kFrontier or kLinearScan.
  static void require_sequential(SchedulerKind sched, const char* layer) {
    if (sched == SchedulerKind::kParallelEpoch) refuse_parallel_epoch(layer);
  }
  void require_sequential(const char* layer) const {
    require_sequential(cfg_.scheduler, layer);
  }

  // --- StackSubstrate: virtual time ---
  [[nodiscard]] Cycles core_now(CoreId core) const override {
    return cores_[core]->clock();
  }
  /// Charging a core moves its simulated clock exactly as driver work
  /// does: a coherence miss or CARAT sweep charged here delays every
  /// later event on that core (the interweaving the silo models lacked).
  /// In per-core parallel mode the charge writes only the core itself,
  /// so shards charge concurrently without sharing a line.
  void charge(CoreId core, Cycles c) override { cores_[core]->consume(c); }

  // --- StackSubstrate: randomness ---
  /// Streams derive from the machine seed, independent of the machine's
  /// own rng_ and of the fault streams: attaching a model draws nothing
  /// from the schedule-visible generators.
  [[nodiscard]] Rng rng_stream(const char* name) const override {
    return Rng(substrate::derive_stream_seed(cfg_.seed, name));
  }

  // --- StackSubstrate: fault hook ---
  [[nodiscard]] FaultInjector* fault_hook() override { return &faults_; }

  /// Attach observability sinks (null = off, the default). Recording is
  /// free in virtual time and draws no RNG, so a traced run executes a
  /// bit-identical schedule to an untraced one. set_tracer pre-sizes
  /// the recorder's per-core buffers so shard-local recording under the
  /// parallel scheduler never reallocates shared state.
  void set_tracer(obs::TraceRecorder* t);
  void set_metrics(obs::MetricsRegistry* m) { metrics_ = m; }
  [[nodiscard]] obs::TraceRecorder* tracer() const override {
#ifdef IW_TRACE_COMPILED_OUT
    return nullptr;
#else
    return tracer_;
#endif
  }
  /// The registry instrumentation should record into *right now*:
  /// during a per-core epoch drain this is the acting core's private
  /// scratch registry (merged deterministically at run end); otherwise
  /// the attached registry.
  [[nodiscard]] obs::MetricsRegistry* metrics() const override {
    const ExecCtx& ctx = exec_ctx();
    if (ctx.machine == this && ctx.scratch != nullptr) return ctx.scratch;
    return metrics_;
  }

  /// Global simulated time = max over core clocks (the frontier). O(1)
  /// in the sequential schedulers (clocks are monotone, so cores
  /// maintain the max incrementally); O(num_cores) in per-core parallel
  /// mode (folds the core clocks — only meaningful between epochs, so
  /// it is never on a hot path there).
  [[nodiscard]] Cycles now() const override {
    if (!per_core_shards()) return now_cache_;
    Cycles m = 0;
    for (const auto& c : cores_) m = std::max(m, c->clock());
    return m;
  }

  /// Earliest pending action time across the machine queue and all
  /// cores; kNever when quiescent. Amortized O(log N) in frontier mode.
  [[nodiscard]] Cycles next_event_time();

  /// Send an inter-processor interrupt from `from`'s current time.
  /// Pays the send cost on the sender and latency in the fabric.
  /// Returns the fabric's verdict on the delivery attempt.
  IpiStatus send_ipi(Core& from, CoreId to, int vector);

  /// Broadcast an IPI to every core except the sender (the paper's
  /// heartbeat path: LAPIC fire on CPU 0, IPI broadcast to workers).
  /// Traced as one ipi.send instant whose count argument carries the
  /// fan-out, matching the per-destination total_ipis() accounting.
  /// Returns how many destinations were actually queued (all of them
  /// unless the fault plan dropped some).
  unsigned broadcast_ipi(Core& from, int vector);

  /// Deliver one IPI into `to`'s inbox from virtual time `sent` (the
  /// sender already paid its send cost). The single fabric choke point:
  /// every IPI — unicast, broadcast fan-out, heartbeat fan-out, retry —
  /// passes through here, where the fault plan may drop, delay, or
  /// duplicate it. During a per-core epoch drain the delivery is
  /// buffered in the sender's outbox (its fate and sequence number
  /// already final) and merged at the barrier. Asserts `to` is in range.
  IpiStatus post_ipi(CoreId to, int vector, Cycles sent);

  /// Schedule a machine-level event: at time `t` the registered sink's
  /// on_machine_event runs with `payload`. Illegal from a core context
  /// during a per-core epoch drain (the machine queue is
  /// coordinator-owned there). The queue entry is plain data, so
  /// snapshot v2 can serialize it.
  void schedule_event(Cycles t, SinkId sink, const EventPayload& payload = {});

  // --- portable event-sink dispatch (snapshot v2; see sink.hpp) ---

  /// Register an event sink; the returned id is its position in the
  /// dispatch table. Registration order must be deterministic across
  /// machine instances of the same scenario (it already must be, for
  /// participant blobs and event-seq provenance).
  SinkId register_event_sink(EventSink* s);
  /// Unregister (leaves a hole; ids are never reused). Any still-queued
  /// event for the id becomes a dispatch-time assertion.
  void unregister_event_sink(SinkId id);
  [[nodiscard]] EventSink* event_sink(SinkId id) const {
    IW_ASSERT_MSG(id < event_sinks_.size() && event_sinks_[id] != nullptr,
                  "event dispatched to an unregistered sink id");
    return event_sinks_[id];
  }
  [[nodiscard]] std::size_t event_sink_count() const {
    return event_sinks_.size();
  }

  /// Register a timer sink so queued timer fires gain a portable
  /// identity (the snapshot stores the id; restore maps it back to the
  /// target machine's table). Timer devices self-register in their
  /// constructors. An unregistered TimerSink still runs, but snapshot()
  /// aborts while one of its fires is pending.
  SinkId register_timer_sink(TimerSink* s);
  void unregister_timer_sink(SinkId id);
  [[nodiscard]] TimerSink* timer_sink(SinkId id) const {
    IW_ASSERT_MSG(id < timer_sinks_.size() && timer_sinks_[id] != nullptr,
                  "snapshot referenced an unregistered timer sink id");
    return timer_sinks_[id];
  }
  /// Reverse lookup (cold: linear; used only at snapshot boundaries).
  [[nodiscard]] SinkId timer_sink_id(const TimerSink* s) const;
  [[nodiscard]] std::size_t timer_sink_count() const {
    return timer_sinks_.size();
  }

  /// Next event sequence number for the current execution context:
  /// (per-source counter << 16) | source. Same-time events order by
  /// provenance, identically under every scheduler.
  std::uint64_t next_seq() {
    const unsigned src = exec_source();
    return (seq_by_source_[src].v++ << 16) | src;
  }

  /// The current execution context's source id: 0 for the machine
  /// queue / setup code (including nested foreign-machine contexts),
  /// core c + 1 while executing core c.
  [[nodiscard]] unsigned exec_source() const {
    const ExecCtx& ctx = exec_ctx();
    return ctx.machine == this ? ctx.source : 0;
  }

  /// Run until `stop()` returns true or no work remains.
  /// Returns false if a hard-stop watchdog fired. Under kParallelEpoch,
  /// `stop` and the watchdogs are evaluated at epoch barriers and serial
  /// deliveries only (the sequential schedulers check per advance).
  /// Without a target, per-core epochs ask no send-horizon certificate,
  /// so they stay one lookahead wide.
  bool run(const std::function<bool()>& stop = nullptr);

  /// Run until virtual time `t` has been reached on the frontier.
  /// Exact under every scheduler: precisely the events before `t` run.
  bool run_until(Cycles t);

  // --- selectable-fidelity fast-forward ---

  /// Largest horizon T <= `want` such that no machine-queue event, no
  /// deliverable inbox entry of any core, and no armed fault-plan stall
  /// precedes T: the machine-side half of the skip-ahead proof
  /// obligation (DESIGN.md §8). Driver certification is the other half
  /// and happens per skip. Returns `want` itself when the whole span is
  /// provably quiet; reads only cached next-action state (recomputing
  /// lazily where dirty), so the query is cheap and side-effect-free on
  /// the schedule.
  [[nodiscard]] Cycles prove_quiet_until(Cycles want);

  /// Reconfigure fast-forward between runs (benches A/B the same
  /// machine; the policy is consulted at run entry).
  void set_fast_forward(const FastForwardPolicy& p) {
    cfg_.fast_forward = p;
    ff_cooldown_ = 0;
    ff_backoff_ = 0;
  }

  // Skip accounting: how much of the run was covered analytically.
  // Stepped (full-fidelity) advances = total_advances() -
  // fast_forwarded_steps(); total_advances() itself is bit-identical
  // with fast-forward on or off.
  /// Core-cycles advanced analytically (summed over cores and windows).
  [[nodiscard]] Cycles fast_forwarded_cycles() const { return ff_cycles_; }
  /// Driver steps replayed analytically instead of executed.
  [[nodiscard]] std::uint64_t fast_forwarded_steps() const {
    return ff_steps_;
  }
  /// Proven-quiet windows consumed (skipped or paranoid-audited).
  [[nodiscard]] std::uint64_t fast_forward_windows() const {
    return ff_windows_;
  }
  /// Windows re-run in full fidelity by the paranoid audit.
  [[nodiscard]] std::uint64_t fast_forward_paranoid_checks() const {
    return ff_paranoid_;
  }

  /// Reconfigure the host-thread count for subsequent kParallelEpoch
  /// runs. The worker pool is rebuilt at the next parallel run if its
  /// size no longer matches (results are thread-count-invariant either
  /// way; this only changes host parallelism).
  void set_threads(unsigned threads) { cfg_.threads = threads; }
  /// Host threads in the currently-built parallel worker pool (0 when
  /// no pool has been built). Observability/test hook.
  [[nodiscard]] unsigned parallel_pool_threads() const;
  /// Shards the current pool's threads drained from blocks they do not
  /// own (0 when no pool). Host-schedule-dependent; results never are.
  [[nodiscard]] std::uint64_t parallel_steals() const;
  /// Work, span and spill totals of the current pool (all zero when no
  /// pool). Observability/test hook.
  [[nodiscard]] ParallelTotals parallel_totals() const;
  /// Full O(cores) next-action scans the per-core epoch loop has run
  /// since construction: one per run entry, plus one after every
  /// machine-queue turn, fast-forward commit, serial delivery and
  /// epoch that ran out of advance budget; every other epoch start is
  /// folded from the previous epoch's drains and merge.
  /// Observability/test hook.
  [[nodiscard]] std::uint64_t horizon_scans() const { return horizon_scans_; }
  /// Parallel epochs (drain + barrier + merge) the per-core epoch engine
  /// has run since construction. Deterministic and host-independent;
  /// kept out of snapshots, like horizon_scans(). Observability/test
  /// hook.
  [[nodiscard]] std::uint64_t parallel_epochs() const {
    return parallel_epochs_;
  }

  /// Declare `core` serial for the per-core epoch engine: when an event
  /// in its inboxes (either head, whatever the interrupt mask) lies
  /// before an epoch's horizon, the parallel epochs stop at the core's
  /// delivery point, and its pick there runs in sequence — after the
  /// lower core ids' picks at that cycle, with the shard guard off — so
  /// the core's event handlers may read and post into other cores. Its
  /// driver steps must still be shard-safe: they also run in parallel
  /// epochs, and one that posts its own core an event due before the
  /// epoch horizon aborts with a diagnostic naming the core.
  /// Idempotent; no other scheduler reads the set, and no snapshot,
  /// fingerprint or digest carries it (the workload re-declares it on
  /// every machine it is built on).
  void declare_serial_core(CoreId core);
  /// Serial deliveries the per-core epoch engine has run since
  /// construction: sequential sections that end with a serial core's
  /// pick. Deterministic and host-independent; kept out of snapshots,
  /// like horizon_scans(). Observability/test hook.
  [[nodiscard]] std::uint64_t serial_epochs() const { return serial_epochs_; }
  /// Picks those serial deliveries ran in sequence, the serial cores'
  /// own included (one per delivery when no lower core id is tied at
  /// the delivery point). Deterministic and host-independent; kept out
  /// of snapshots. Observability/test hook.
  [[nodiscard]] std::uint64_t serial_picks() const { return serial_picks_; }
  /// Cores an invalidation has pushed onto the kFrontier dirty list
  /// since construction (run-entry and restore refreshes not counted).
  /// The stepping core rewrites its own leaf, so only invalidations
  /// from another context count: IPIs, wakes, machine-queue events,
  /// fast-forward commits. Deterministic and host-independent; kept
  /// out of snapshots, like horizon_scans(). Observability/test hook.
  [[nodiscard]] std::uint64_t frontier_dirty_pushes() const {
    return frontier_dirty_pushes_;
  }

  /// Execute at most `n` DES iterations; returns how many actually ran
  /// (fewer means the machine went quiescent). No watchdogs, no stop
  /// predicate — the microbenchmark entry point. Always sequential
  /// (kParallelEpoch falls back to the linear-scan pick order here).
  std::uint64_t advance_n(std::uint64_t n);

  // --- deterministic checkpoint/restore (src/hwsim/snapshot.cpp) ---

  /// Capture the complete dynamic state as a v2 image. Legal only
  /// between runs (never from inside this machine's own DES loop —
  /// queues are mid-mutation there). Aborts on a pending fire of an
  /// unregistered TimerSink. See snapshot.hpp for the contract and
  /// Snapshot::digest() for the cross-machine-comparable part.
  [[nodiscard]] Snapshot snapshot();

  /// Rewind to a previously captured state. `restore(s); run_until(T)`
  /// is bit-identical (traces, digests, fault schedules) to the
  /// uninterrupted original run, under every scheduler × threads × ff
  /// mode. Asserts the snapshot came from this machine shape (version,
  /// fingerprint, core and participant counts) and that no run is in
  /// progress. Every queue is cleared and refilled from the image's
  /// records, their timer and sink ids resolved against this machine's
  /// tables. Scheduling caches are rebuilt (all cores marked dirty,
  /// frontier refreshed) rather than restored — they are derived state.
  void restore(const Snapshot& s);

  /// Register dynamic state the machine cannot see (timer devices,
  /// watchdogs, recovery layers, workload drivers). Registration order
  /// is serialization order; participants must be registered by the
  /// time of the first snapshot() and still registered (same order) at
  /// restore(). Timer/recovery classes self-register in their
  /// constructors; test and tool drivers register manually.
  void register_snapshot_participant(SnapshotParticipant* p);
  void unregister_snapshot_participant(SnapshotParticipant* p);
  [[nodiscard]] std::size_t snapshot_participants() const {
    return participants_.size();
  }

  /// Swap in a new fault plan + fault-stream seed between runs. The
  /// injector's streams are reseeded from scratch (counters, RNG
  /// positions and opportunity cursors reset): this is the scenario
  /// divergence point — a worker hydrates a shared warmed snapshot
  /// (whose fingerprint covers the *donor's* fault seed) and then
  /// installs its own per-run schedule before running on.
  void install_fault_plan(const FaultPlan& plan, std::uint64_t fault_seed);

  /// Toggle the frontier/linear cross-check between runs (O(N) per
  /// advance; tools/ttreplay turns it on while replaying a divergent
  /// window in full fidelity).
  void set_paranoid_frontier(bool on) { cfg_.paranoid_frontier = on; }

  // --- fault injection ---
  [[nodiscard]] FaultInjector& fault_injector() { return faults_; }
  [[nodiscard]] const FaultInjector& fault_injector() const {
    return faults_;
  }

  /// Human-readable core-state dump (clocks, masks, inbox depths) for
  /// panic paths — e.g. a barrier timeout with a stalled participant.
  void dump_state(std::FILE* out);

  // accounting (cold: summed over per-source cells on read)
  [[nodiscard]] std::uint64_t total_ipis() const {
    std::uint64_t n = 0;
    for (const auto& c : ipis_by_source_) n += c.v;
    return n;
  }
  [[nodiscard]] std::uint64_t total_advances() const { return advances_; }
  /// Hot-path growth reallocations since construction: queue/slab growth
  /// across the machine queue and every core inbox, plus the parallel
  /// engine's outbox spill growth. A warmed steady-state run
  /// should hold this flat; bench/des_throughput reports the delta as
  /// allocs_per_million_events.
  [[nodiscard]] std::uint64_t hot_path_allocs() const;

 private:
  struct ExecCtx {
    const Machine* machine{nullptr};
    unsigned source{0};
    obs::MetricsRegistry* scratch{nullptr};
    IpiOutbox* outbox{nullptr};
  };
  /// One thread-local context cell shared by all machines (scoped per
  /// machine via the `machine` field; see ExecScope). Inline and
  /// constant-initialized, so every hot-path reader (ExecScope,
  /// next_seq, exec_source, metrics) is a plain thread-local access.
  static ExecCtx& exec_ctx() {
    static thread_local ExecCtx ctx;
    return ctx;
  }

 public:
  /// RAII execution-context scope: binds the calling host thread to a
  /// simulated source (0 = machine, core c = c + 1) and, in per-core
  /// parallel mode, to that core's scratch metrics and IPI outbox. Set
  /// by the DES loop around every event execution; nests (restores the
  /// previous context on destruction) so foreign-machine and setup code
  /// resolve to source 0.
  class ExecScope {
   public:
    ExecScope(const Machine& m, unsigned source,
              obs::MetricsRegistry* scratch = nullptr,
              IpiOutbox* outbox = nullptr)
        : prev_(exec_ctx()) {
      exec_ctx() = ExecCtx{&m, source, scratch, outbox};
    }
    ~ExecScope() { exec_ctx() = prev_; }
    ExecScope(const ExecScope&) = delete;
    ExecScope& operator=(const ExecScope&) = delete;

   private:
    ExecCtx prev_;
  };

 private:
  friend class Core;
  friend class ParallelEngine;

  /// The scheduler's choice for one DES iteration: the earliest
  /// actionable entity. core == nullptr means the machine queue (which
  /// wins time ties, matching the seed scheduler).
  struct Pick {
    Cycles time{kNever};
    Core* core{nullptr};
  };

  /// Packed frontier word: (time << 16) | core — one word, so a tree
  /// match and the (time, id) tie-break are a single integer min.
  /// Virtual times are asserted < 2^48 at leaf update (~3 days of
  /// simulated time at 1 GHz); core ids stay below 0xFFFF (asserted at
  /// construction), so the all-ones kNoEntry (kNever, or a padding
  /// leaf) never collides with a real core's word.
  using FrontierEntry = std::uint64_t;
  static constexpr unsigned kFrontierCoreBits = 16;
  static constexpr FrontierEntry kNoEntry = ~FrontierEntry{0};
  [[nodiscard]] static constexpr Cycles entry_time(FrontierEntry e) {
    return e >> kFrontierCoreBits;
  }
  [[nodiscard]] static constexpr CoreId entry_core(FrontierEntry e) {
    return static_cast<CoreId>(e & 0xFFFFu);
  }

  /// Cache-line-private counter cell (per-source arrays are indexed by
  /// concurrently-executing shard contexts in per-core parallel mode).
  struct alignas(64) PaddedCount {
    std::uint64_t v{0};
  };

  /// kParallelEpoch: cores drain concurrently, so shared per-machine
  /// caches are off and now() folds core clocks.
  [[nodiscard]] bool per_core_shards() const {
    return cfg_.scheduler == SchedulerKind::kParallelEpoch;
  }
  [[noreturn]] static void refuse_parallel_epoch(const char* layer);

  /// One iteration of the DES loop. Returns false when no work remains.
  bool advance_once();
  /// The sequential run loop shared by run()/run_until(): stop
  /// predicate, watchdogs, and the fast-forward trigger. `until` bounds
  /// skip horizons (kNever for run()).
  bool run_loop(const std::function<bool()>& stop, Cycles until);
  void execute(const Pick& pick);
  /// Pop the machine queue's head and dispatch it to its sink, in the
  /// machine's execution context (source 0). Counts one advance.
  void run_machine_event();

  /// Machine-side quiet proof over [earliest runnable clock, horizon).
  struct QuietProof {
    Cycles horizon{kNever};        ///< proven-quiet bound
    Cycles earliest_clock{kNever}; ///< min clock among runnable cores
    bool skippable{false};         ///< any runnable core below horizon
  };
  [[nodiscard]] QuietProof quiet_proof(Cycles want);
  /// Attempt one analytic skip toward `want`. True = a window was
  /// consumed (skipped, or audited in full fidelity by paranoid mode);
  /// false = no profitable provable window, step normally.
  bool try_fast_forward(Cycles want);
  /// Paranoid audit: step the proven window [*, horizon) in full
  /// fidelity and abort on any divergence from the collected plans or
  /// any sign the window was not inert.
  void paranoid_replay(Cycles horizon);
  /// Replay every dirty core's leaf up the winner tree; the root is the
  /// earliest core, against which the machine queue wins time ties.
  [[nodiscard]] Pick frontier_peek();
  /// Rewrite core `id`'s leaf with next-action time `t` and replay the
  /// matches on its path to the root.
  void frontier_set_leaf(CoreId id, Cycles t);
  [[nodiscard]] Pick linear_peek();
  /// Mark every core dirty so the next peek replays every leaf (run()
  /// entry, restore): makes any driver-state mutation performed outside
  /// the loop safe even if the owner forgot to mark the core dirty.
  void refresh_frontier();

  // kParallelEpoch (src/hwsim/parallel.cpp).
  bool parallel_run(const std::function<bool()>& stop, Cycles until);
  /// Lower `horizon` so that no serial core delivers inside the next
  /// parallel epoch: to a serial core's inbox head while it steps
  /// toward it, else to its next action. `*due` becomes the serial core
  /// (lowest id first) whose delivery point is the epoch start `e`, the
  /// one that must run next in sequence; null if none is.
  [[nodiscard]] Cycles serial_cut(Cycles horizon, Cycles e, Core** due);
  /// Run the sequential picks due at cycle `d`, lower core ids first,
  /// up to and including `serial`'s own pick, with the shard guard off.
  void run_serial_delivery(Core& serial, Cycles d);
  [[nodiscard]] bool is_serial_core(CoreId id) const {
    return std::find(serial_cores_.begin(), serial_cores_.end(), id) !=
           serial_cores_.end();
  }
  /// Send horizon of core `c`, whose next action is `next`, in a run
  /// toward `until`: the earliest cycle at which it could post a
  /// cross-core event. A runnable core below `until` whose driver
  /// certifies its steps inert up to `until` (plan_fast_forward) can
  /// send only from a handler, so from its next delivery on:
  /// min(until, max(next, earliest_deliverable())); it then sets
  /// `*certified` when non-null. Any other core returns `next`: a
  /// declining driver may send from its next step, an idle core only
  /// at its next action, and a run without a target (kNever) asks no
  /// certificate.
  [[nodiscard]] Cycles send_horizon(Core& c, Cycles next, Cycles until,
                                    bool* certified = nullptr);
  /// The per-core loop's full scan: the earliest uncached next-action
  /// time and send horizon over all cores (kNever if none), and whether
  /// any driver certified.
  struct EpochStart {
    Cycles next{kNever};
    Cycles send{kNever};
    bool certified{false};
  };
  [[nodiscard]] EpochStart epoch_scan(Cycles until);
  /// Lookahead: the minimum fabric latency any cross-core interaction
  /// pays (fault plans only add on top of it).
  [[nodiscard]] Cycles lookahead() const { return cfg_.costs.ipi_latency; }

  /// Fabric delivery: buffer in the sender's outbox during a per-core
  /// drain (IpiOutbox::stage checks it against the epoch's horizon),
  /// else push straight into the target inbox.
  void enqueue_ipi(CoreId to, const IrqEvent& ev);

  /// Shard-safety check for event posts targeting `target`'s inboxes:
  /// during a per-core epoch drain only the owning core context (or the
  /// machine context, which runs with shards parked) may touch them.
  [[nodiscard]] bool shard_guard_ok(CoreId target) const {
    if (!per_core_drain_active_) return true;
    const unsigned src = exec_source();
    return src == 0 || static_cast<CoreId>(src - 1) == target;
  }

  // Core-facing hooks.
  Cycles* now_cell() { return &now_cache_; }
  void frontier_enqueue_dirty(CoreId id);

  MachineConfig cfg_;
  /// Running max of the core clocks (sequential schedulers only; see
  /// now()).
  Cycles now_cache_{0};
  std::vector<std::unique_ptr<Core>> cores_;
  obs::TraceRecorder* tracer_{nullptr};
  obs::MetricsRegistry* metrics_{nullptr};
  EventQueue machine_queue_;
  /// kFrontier only: a winner tree of 2·L packed words, L the next
  /// power of two >= num_cores. Word L + i is core i's leaf (its cached
  /// next-action time, kNoEntry for kNever and for padding leaves);
  /// word k < L is min(word 2k, word 2k + 1), so word 1 is the earliest
  /// core. Sized at construction: the frontier never allocates.
  std::vector<FrontierEntry> frontier_tree_;
  /// Cores whose leaf is out of date (kFrontier only drains it): those
  /// dirtied from another context. execute() rewrites the stepping
  /// core's leaf itself.
  std::vector<CoreId> dirty_cores_;
  std::uint64_t frontier_dirty_pushes_{0};
  /// Dense SoA mirror of the per-core scheduling caches (cached
  /// next-action time + dirty flag), indexed by core id. The sequential
  /// schedulers point every core's cache-slot pointers here, so the
  /// frontier's leaf updates and the fast-forward quiet proof read
  /// contiguous arrays instead of one padded cell per Core object.
  /// Empty in per-core parallel mode (cores keep private padded cells
  /// there; concurrent shard drains must not share cache lines).
  std::vector<Cycles> sched_time_;
  std::vector<std::uint8_t> sched_dirty_;
  FaultInjector faults_;
  Rng rng_;
  /// Per-source event sequence counters (index 0 = machine context).
  std::vector<PaddedCount> seq_by_source_;
  /// Per-source IPI attempt counters (same indexing).
  std::vector<PaddedCount> ipis_by_source_;
  std::uint64_t advances_{0};
  /// True while a per-core epoch drain could be executing shard
  /// contexts (set for the duration of a per-core parallel run, cleared
  /// for its serial deliveries).
  bool per_core_drain_active_{false};
  std::unique_ptr<ParallelEngine> parallel_;
  std::uint64_t horizon_scans_{0};
  std::uint64_t parallel_epochs_{0};
  /// Declared serial cores (declare_serial_core), in declaration order.
  std::vector<CoreId> serial_cores_;
  std::uint64_t serial_epochs_{0};
  std::uint64_t serial_picks_{0};
  /// Registered snapshot participants, in registration order.
  std::vector<SnapshotParticipant*> participants_;
  /// Dispatch tables for portable events (sink.hpp). Index = SinkId;
  /// unregistration nulls the slot without reindexing.
  std::vector<EventSink*> event_sinks_;
  std::vector<TimerSink*> timer_sinks_;

  // --- fast-forward state ---
  /// Scratch plan list for the window being proved (reused; the hot
  /// path allocates nothing once warmed up).
  std::vector<std::pair<Core*, FastForwardPlan>> ff_plans_;
  Cycles ff_cycles_{0};
  std::uint64_t ff_steps_{0};
  std::uint64_t ff_windows_{0};
  std::uint64_t ff_paranoid_{0};
  /// Failed-attempt backoff: after a failed proof the trigger sleeps
  /// for ff_cooldown_ advances (doubling up to a cap, reset on
  /// success). Purely a wall-clock heuristic — a skip is semantically a
  /// no-op, so WHEN one is attempted can never change results.
  std::uint64_t ff_cooldown_{0};
  std::uint64_t ff_backoff_{0};
};

}  // namespace iw::hwsim
