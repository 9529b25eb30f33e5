// Machine::snapshot()/restore() and the Snapshot digest.
//
// What is captured where:
//  * digested words — per-core clocks/IRQ state/accounting, machine
//    advances, per-source seq and IPI counters, the machine Rng, fault
//    stream RNG states + counters, and every participant blob
//    (length-prefixed). Everything here is semantically observable and
//    therefore identical across scheduler × steal × ff configurations
//    of the same scenario.
//  * ephemeral words — fast-forward accounting and backoff, fault
//    opportunity counters and script cursors. Needed for an exact
//    same-mode restore, but legitimately different across ff modes
//    (an analytic skip elides step opportunities without changing any
//    draw), so the digest excludes them.
//  * queue copies — the machine event queue and both per-core inboxes,
//    value-copied. Every record is plain data (sink ids and payload
//    words); serialize() writes them out as such.
//
// What is deliberately NOT captured: scheduling caches (frontier tree,
// dirty lists, cached next-action times, the now() caches) — all
// derived from core/queue state and rebuilt on restore by marking every
// core dirty; vector tables and drivers (structural wiring, not state);
// observability sinks (tracer/metrics attachments are the caller's).
#include "hwsim/snapshot.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "hwsim/machine.hpp"
#include "hwsim/parallel.hpp"

namespace iw::hwsim {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
/// Queued events once could hold a closure, and the digest mixed a flag
/// for it after each record. No event holds one now; the word stays, as
/// a constant 0, so the digests pinned in perfbench/pins still match.
constexpr std::uint64_t kRetiredClosureFlag = 0;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= v & 0xFFu;
    h *= kFnvPrime;
    v >>= 8;
  }
}

/// (time, seq)-sorted view of a queue's events. The packed heap/slab
/// layout depends on push interleaving (sequential vs epoch-barrier
/// merge), but (time, seq) is a total order on the logical contents —
/// sorting makes the digest layout-independent.
template <class EventT>
std::vector<const EventT*> sorted_view(const TimedQueue<EventT>& q) {
  std::vector<const EventT*> v;
  v.reserve(q.size());
  q.for_each([&v](const EventT& e) { v.push_back(&e); });
  std::sort(v.begin(), v.end(), [](const EventT* a, const EventT* b) {
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
  });
  return v;
}

void mix_queue(std::uint64_t& h, const TimedQueue<Event>& q) {
  mix(h, q.size());
  for (const Event* e : sorted_view(q)) {
    mix(h, e->time);
    mix(h, e->seq);
    mix(h, e->sink);
    for (std::uint64_t wd : e->payload.w) mix(h, wd);
    mix(h, kRetiredClosureFlag);
  }
}

void mix_queue(std::uint64_t& h, const TimedQueue<IrqEvent>& q) {
  mix(h, q.size());
  for (const IrqEvent* e : sorted_view(q)) {
    mix(h, e->time);
    mix(h, e->seq);
    mix(h, e->origin);
    mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e->vector)));
    mix(h, e->ipi ? 1 : 0);
  }
}

void mix_queue(std::uint64_t& h, const TimedQueue<CoreEvent>& q) {
  mix(h, q.size());
  for (const CoreEvent* e : sorted_view(q)) {
    mix(h, e->time);
    mix(h, e->seq);
    mix(h, e->gen);
    mix(h, e->ideal);
    // Pointer-free timer identity: a captured copy carries the stamped
    // timer_sink id, so a donor snapshot and its deserialized transport
    // hash identically even though only the donor holds the pointer.
    mix(h, e->timer != nullptr || e->timer_sink != kNoSink ? 1 : 0);
    mix(h, e->timer_sink);
    mix(h, e->sink);
    for (std::uint64_t wd : e->payload.w) mix(h, wd);
    mix(h, kRetiredClosureFlag);
  }
}

/// Read a sink-id word, rejecting with `diagnostic` a value wider than
/// 32 bits instead of truncating it onto some other sink. kNoSink
/// (absent) passes; the caller decides whether absence is legal.
SinkId read_sink(SnapshotReader& r, const char* diagnostic) {
  const std::uint64_t v = r.u64();
  IW_ASSERT_MSG(v <= kNoSink, diagnostic);
  return static_cast<SinkId>(v);
}

/// Read a length word, rejecting it with `diagnostic` unless that many
/// items of at least `words_each` words still fit in the image: a
/// corrupt length must fail by name, not as a huge allocation.
std::uint64_t read_count(SnapshotReader& r, std::size_t words_each,
                         const char* diagnostic) {
  const std::uint64_t n = r.u64();
  IW_ASSERT_MSG(n <= r.remaining() / words_each, diagnostic);
  return n;
}

/// Immutable-shape hash: core count and seeds. Scheduler, threads,
/// steal, and ff mode are execution strategies and excluded on purpose
/// (they may change between snapshot and restore).
std::uint64_t config_fingerprint(const MachineConfig& cfg) {
  std::uint64_t h = kFnvOffset;
  mix(h, cfg.num_cores);
  mix(h, cfg.seed);
  mix(h, cfg.fault_seed);
  return h;
}

}  // namespace

std::uint64_t Snapshot::digest() const {
  std::uint64_t h = kFnvOffset;
  mix(h, version);
  mix(h, at);
  mix(h, words.size());
  for (std::uint64_t w : words) mix(h, w);
  mix_queue(h, machine_queue);
  mix(h, cores.size());
  for (const CoreQueues& cq : cores) {
    mix_queue(h, cq.irq);
    mix_queue(h, cq.callbacks);
  }
  return h;
}

std::size_t Snapshot::footprint_words() const {
  std::size_t n = words.size() + ephemeral.size();
  n += machine_queue.size() * (sizeof(Event) / 8);
  for (const CoreQueues& cq : cores) {
    n += cq.irq.size() * (sizeof(IrqEvent) / 8);
    n += cq.callbacks.size() * (sizeof(CoreEvent) / 8);
  }
  return n;
}

std::vector<std::uint64_t> Snapshot::serialize() const {
  SnapshotWriter w;
  w.u64(kMagic);
  w.u64(version);
  w.u64(fingerprint);
  w.u64(at);
  w.u64(participant_count);
  w.u64(words.size());
  for (std::uint64_t x : words) w.u64(x);
  w.u64(ephemeral.size());
  for (std::uint64_t x : ephemeral) w.u64(x);

  // Queues are written in (time, seq) order — the logical contents —
  // not heap layout, so the image is byte-identical for two snapshots
  // whose queues were populated under different push interleavings.
  w.u64(machine_queue.size());
  for (const Event* e : sorted_view(machine_queue)) {
    w.u64(e->time);
    w.u64(e->seq);
    w.u64(e->sink);
    for (std::uint64_t pw : e->payload.w) w.u64(pw);
  }
  w.u64(cores.size());
  for (const CoreQueues& cq : cores) {
    w.u64(cq.irq.size());
    for (const IrqEvent* e : sorted_view(cq.irq)) {
      w.u64(e->time);
      w.u64(e->seq);
      w.u64(e->origin);
      w.i64(e->vector);
      w.b(e->ipi);
    }
    w.u64(cq.callbacks.size());
    for (const CoreEvent* e : sorted_view(cq.callbacks)) {
      IW_ASSERT_MSG(e->timer == nullptr || e->timer_sink != kNoSink,
                    "snapshot v2 cannot serialize a pending fire for an "
                    "unregistered TimerSink (register the timer with "
                    "Machine::register_timer_sink)");
      w.u64(e->time);
      w.u64(e->seq);
      w.u64(e->gen);
      w.u64(e->ideal);
      w.u64(e->timer_sink);
      w.u64(e->sink);
      for (std::uint64_t pw : e->payload.w) w.u64(pw);
    }
  }
  return w.take();
}

Snapshot Snapshot::deserialize(const std::vector<std::uint64_t>& image) {
  SnapshotReader r(image);
  IW_ASSERT_MSG(r.remaining() >= 2 && image[0] == kMagic,
                "snapshot image rejected: bad magic word (not a "
                "serialized hwsim snapshot)");
  (void)r.u64();  // magic
  const std::uint64_t ver = r.u64();
  IW_ASSERT_MSG(ver == kFormatVersion,
                "snapshot image rejected: unsupported format version "
                "(this build reads format v2 only; re-capture the "
                "snapshot with a matching build)");

  Snapshot s;
  s.version = ver;
  s.fingerprint = r.u64();
  s.at = r.u64();
  s.participant_count = r.u64();
  s.words.resize(read_count(r, 1,
                            "snapshot image rejected: word-section length "
                            "exceeds the remaining image"));
  for (std::uint64_t& x : s.words) x = r.u64();
  s.ephemeral.resize(read_count(r, 1,
                                "snapshot image rejected: ephemeral-section "
                                "length exceeds the remaining image"));
  for (std::uint64_t& x : s.ephemeral) x = r.u64();

  constexpr std::size_t kPayloadWords =
      sizeof(EventPayload::w) / sizeof(std::uint64_t);
  const std::uint64_t n_machine =
      read_count(r, 3 + kPayloadWords,
                 "snapshot image rejected: machine-queue length exceeds "
                 "the remaining image");
  for (std::uint64_t i = 0; i < n_machine; ++i) {
    Event e;
    e.time = r.u64();
    e.seq = r.u64();
    e.sink = read_sink(r,
                       "snapshot image rejected: machine-queue sink word "
                       "exceeds 32 bits");
    IW_ASSERT_MSG(e.sink != kNoSink,
                  "snapshot image rejected: machine-queue record names no "
                  "sink");
    for (std::uint64_t& pw : e.payload.w) pw = r.u64();
    s.machine_queue.push(std::move(e));
  }
  // Each core section holds at least its two queue lengths.
  s.cores.resize(read_count(r, 2,
                            "snapshot image rejected: core count exceeds "
                            "the remaining image"));
  for (CoreQueues& cq : s.cores) {
    const std::uint64_t n_irq =
        read_count(r, 5,
                   "snapshot image rejected: IRQ-inbox length exceeds the "
                   "remaining image");
    for (std::uint64_t i = 0; i < n_irq; ++i) {
      IrqEvent e;
      e.time = r.u64();
      e.seq = r.u64();
      e.origin = r.u64();
      const std::int64_t vector = r.i64();
      IW_ASSERT_MSG(vector >= 0 && vector < kNumIrqVectors,
                    "snapshot image rejected: queued IRQ vector outside "
                    "[0, 256)");
      e.vector = static_cast<std::int32_t>(vector);
      e.ipi = r.b();
      cq.irq.push(e);
    }
    const std::uint64_t n_cb =
        read_count(r, 6 + kPayloadWords,
                   "snapshot image rejected: callback-inbox length exceeds "
                   "the remaining image");
    for (std::uint64_t i = 0; i < n_cb; ++i) {
      CoreEvent e;
      e.time = r.u64();
      e.seq = r.u64();
      e.gen = r.u64();
      e.ideal = r.u64();
      e.timer_sink = read_sink(r,
                               "snapshot image rejected: callback-inbox "
                               "timer-sink word exceeds 32 bits");
      e.sink = read_sink(r,
                         "snapshot image rejected: callback-inbox sink "
                         "word exceeds 32 bits");
      IW_ASSERT_MSG((e.timer_sink == kNoSink) != (e.sink == kNoSink),
                    "snapshot image rejected: callback-inbox record must "
                    "name exactly one of a timer sink and an event sink");
      for (std::uint64_t& pw : e.payload.w) pw = r.u64();
      cq.callbacks.push(std::move(e));
    }
  }
  IW_ASSERT_MSG(r.remaining() == 0,
                "snapshot image rejected: trailing words after the last "
                "queue section (truncated or corrupt image)");
  return s;
}

void Machine::register_snapshot_participant(SnapshotParticipant* p) {
  IW_ASSERT(p != nullptr);
  participants_.push_back(p);
}

void Machine::unregister_snapshot_participant(SnapshotParticipant* p) {
  const auto it =
      std::find(participants_.begin(), participants_.end(), p);
  if (it != participants_.end()) participants_.erase(it);
}

Snapshot Machine::snapshot() {
  IW_ASSERT_MSG(exec_ctx().machine != this,
                "snapshot() from inside this machine's execution context "
                "(snapshots are legal only between runs)");
  IW_ASSERT_MSG(!per_core_drain_active_,
                "snapshot() during a per-core parallel drain");
  IW_ASSERT_MSG(parallel_ == nullptr || parallel_->quiescent(),
                "snapshot() with undelivered epoch outbox traffic");

  Snapshot s;
  s.fingerprint = config_fingerprint(cfg_);
  s.at = now();

  SnapshotWriter w;
  SnapshotWriter eph;

  // Machine-level observable state.
  w.u64(cores_.size());
  w.u64(advances_);
  const Rng::State rs = rng_.state();
  for (std::uint64_t x : rs.s) w.u64(x);
  w.f64(rs.cached_normal);
  w.b(rs.has_cached_normal);
  w.u64(seq_by_source_.size());
  for (const auto& c : seq_by_source_) w.u64(c.v);
  for (const auto& c : ipis_by_source_) w.u64(c.v);

  // Per-core observable state (inboxes are captured as live copies
  // below; their logical contents enter the digest via mix_queue).
  for (const auto& c : cores_) {
    w.u64(c->clock_);
    w.b(c->irq_enabled_);
    w.u64(c->cur_irq_origin_);
    w.u64(c->irqs_delivered_);
    w.u64(c->irq_overhead_);
    w.u64(c->steps_);
  }

  faults_.save_state(w, eph);

  // Fast-forward accounting and backoff: wall-clock heuristics, exact
  // restore only.
  eph.u64(ff_cycles_);
  eph.u64(ff_steps_);
  eph.u64(ff_windows_);
  eph.u64(ff_paranoid_);
  eph.u64(ff_cooldown_);
  eph.u64(ff_backoff_);

  // Participant blobs, length-prefixed in registration order.
  w.u64(participants_.size());
  for (const SnapshotParticipant* p : participants_) {
    SnapshotWriter pw;
    p->save_state(pw);
    w.u64(pw.size());
    for (std::uint64_t x : pw.words()) w.u64(x);
  }
  s.participant_count = participants_.size();

  s.words = w.take();
  s.ephemeral = eph.take();

  s.machine_queue = machine_queue_;
  s.cores.resize(cores_.size());
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    s.cores[i].irq = cores_[i]->irq_inbox_;
    s.cores[i].callbacks = cores_[i]->callback_inbox_;
    // Stamp each pending timer fire's portable identity into the copy
    // (the live queue keeps only the pointer). Unregistered timers
    // stamp kNoSink; the snapshot stays restorable same-instance, and
    // serialize() rejects it with a diagnostic.
    s.cores[i].callbacks.for_each_mutable([this](CoreEvent& e) {
      if (e.timer != nullptr) e.timer_sink = timer_sink_id(e.timer);
    });
  }
  return s;
}

void Machine::restore(const Snapshot& s) {
  IW_ASSERT_MSG(exec_ctx().machine != this,
                "restore() from inside this machine's execution context");
  IW_ASSERT_MSG(!per_core_drain_active_,
                "restore() during a per-core parallel drain");
  IW_ASSERT_MSG(parallel_ == nullptr || parallel_->quiescent(),
                "restore() with undelivered epoch outbox traffic");
  IW_ASSERT_MSG(s.version == Snapshot::kFormatVersion,
                "snapshot format version mismatch (this build restores "
                "format v2 only)");
  IW_ASSERT_MSG(s.fingerprint == config_fingerprint(cfg_),
                "snapshot fingerprint mismatch (different machine shape "
                "or seeds)");
  IW_ASSERT_MSG(s.cores.size() == cores_.size(),
                "snapshot core count mismatch");
  IW_ASSERT_MSG(s.participant_count == participants_.size(),
                "snapshot participant count mismatch (participants must "
                "be registered identically at snapshot and restore)");

  SnapshotReader r(s.words);
  SnapshotReader re(s.ephemeral);

  IW_ASSERT_MSG(r.u64() == cores_.size(), "snapshot core-section corrupt");
  advances_ = r.u64();
  Rng::State rs;
  for (std::uint64_t& x : rs.s) x = r.u64();
  rs.cached_normal = r.f64();
  rs.has_cached_normal = r.b();
  rng_.set_state(rs);
  IW_ASSERT_MSG(r.u64() == seq_by_source_.size(),
                "snapshot seq-section corrupt");
  for (auto& c : seq_by_source_) c.v = r.u64();
  for (auto& c : ipis_by_source_) c.v = r.u64();

  for (std::size_t i = 0; i < cores_.size(); ++i) {
    Core& c = *cores_[i];
    c.clock_ = r.u64();
    c.irq_enabled_ = r.b();
    c.cur_irq_origin_ = r.u64();
    c.irqs_delivered_ = r.u64();
    c.irq_overhead_ = r.u64();
    c.steps_ = r.u64();
    c.irq_inbox_ = s.cores[i].irq;
    c.callback_inbox_ = s.cores[i].callbacks;
    // Resolve portable timer identities against THIS machine's registry
    // (the whole point of v2: a deserialized snapshot carries ids, not
    // pointers). Same-instance restores resolve to the original timer;
    // cross-instance restores require the target to have registered its
    // timers in the same order — timer_sink() aborts otherwise.
    c.callback_inbox_.for_each_mutable([this](CoreEvent& e) {
      if (e.timer_sink != kNoSink) e.timer = timer_sink(e.timer_sink);
      if (e.sink != kNoSink) (void)event_sink(e.sink);
    });
  }

  faults_.restore_state(r, re);

  ff_cycles_ = re.u64();
  ff_steps_ = re.u64();
  ff_windows_ = re.u64();
  ff_paranoid_ = re.u64();
  ff_cooldown_ = re.u64();
  ff_backoff_ = re.u64();
  ff_plans_.clear();

  IW_ASSERT_MSG(r.u64() == participants_.size(),
                "snapshot participant-section corrupt");
  for (SnapshotParticipant* p : participants_) {
    const std::uint64_t len = r.u64();
    const std::size_t before = r.pos();
    p->restore_state(r);
    IW_ASSERT_MSG(r.pos() - before == len,
                  "snapshot participant section length mismatch (a "
                  "participant's save/restore word counts disagree)");
  }
  IW_ASSERT_MSG(r.remaining() == 0, "snapshot word stream not consumed");
  IW_ASSERT_MSG(re.remaining() == 0,
                "snapshot ephemeral stream not consumed");

  machine_queue_ = s.machine_queue;
  machine_queue_.for_each([this](const Event& e) {
    (void)event_sink(e.sink);
  });

  // Rebuild the derived scheduling state: the now() cache is a pure
  // function of the (monotone) core clocks, and refresh_frontier marks
  // every core dirty so the next run recomputes all cached next-action
  // times and replays every leaf of the frontier tree.
  now_cache_ = 0;
  for (const auto& c : cores_) now_cache_ = std::max(now_cache_, c->clock_);
  refresh_frontier();
}

}  // namespace iw::hwsim
