// Machine::snapshot()/restore() and the v2 image's one decoder.
//
// The image, word by word:
//  * header — magic, format version, config fingerprint, capture time,
//    participant count;
//  * digested words, length-prefixed — per-core clocks/IRQ state/
//    accounting, machine advances, per-source seq and IPI counters, the
//    machine Rng, fault stream RNG states + counters, and every
//    participant blob (length-prefixed). Everything here is
//    semantically observable and therefore identical across
//    scheduler × threads × ff configurations of the same scenario;
//  * ephemeral words, length-prefixed — fast-forward accounting and
//    backoff, fault opportunity counters and script cursors. Needed for
//    an exact same-mode restore, but legitimately different across ff
//    modes (an analytic skip elides step opportunities without changing
//    any draw), so the digest excludes them;
//  * queues — the machine queue, the core count, then per core the IRQ
//    inbox and the callback inbox: each a length and its records in
//    (time, seq) order. A timer fire records its TimerSink id where the
//    live queue holds the pointer.
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
/// writing records in it makes the image layout-independent.
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

/// Immutable-shape hash: core count and seeds. Scheduler, threads and
/// ff mode are execution strategies and excluded on purpose
/// (they may change between snapshot and restore).
std::uint64_t config_fingerprint(const MachineConfig& cfg) {
  std::uint64_t h = kFnvOffset;
  mix(h, cfg.num_cores);
  mix(h, cfg.seed);
  mix(h, cfg.fault_seed);
  return h;
}

constexpr std::size_t kPayloadWords =
    sizeof(EventPayload::w) / sizeof(std::uint64_t);

/// Receiver of the decoded queue section; every callback defaults to a
/// no-op, so a visitor overrides only what it reads. Callbacks arrive in
/// image order: length() before each queue's records, cores() once
/// before the first core's inboxes.
struct QueueVisitor {
  void length(std::uint64_t) {}
  void cores(std::uint64_t) {}
  void machine(const Event&) {}
  void irq(std::size_t, const IrqEvent&) {}
  /// A callback-inbox record: `timer` is the fire's TimerSink id (the
  /// event's own timer pointer is null), kNoSink for a sink event.
  void core(std::size_t, const CoreEvent&, SinkId /*timer*/) {}
};

/// The one reader of a v2 image. Construction checks the header and
/// bounds the two word sections; queues() decodes every queued record.
/// Each check aborts with a named diagnostic, so a corrupt image fails
/// by name — never as a huge allocation or a stray sink dispatch.
class ImageDecoder {
 public:
  explicit ImageDecoder(const std::vector<std::uint64_t>& image)
      : r_(image) {
    IW_ASSERT_MSG(image.size() >= 2 && image[0] == Snapshot::kMagic,
                  "snapshot image rejected: bad magic word (not a "
                  "serialized hwsim snapshot)");
    (void)r_.u64();  // magic
    IW_ASSERT_MSG(r_.u64() == Snapshot::kFormatVersion,
                  "snapshot image rejected: unsupported format version "
                  "(this build reads format v2 only; re-capture the "
                  "snapshot with a matching build)");
    fingerprint = r_.u64();
    at = r_.u64();
    participants = r_.u64();
    words = r_.take(read_count(r_, 1,
                               "snapshot image rejected: word-section "
                               "length exceeds the remaining image"));
    ephemeral = r_.take(read_count(r_, 1,
                                   "snapshot image rejected: "
                                   "ephemeral-section length exceeds the "
                                   "remaining image"));
  }

  /// Decode the queue section into `v` (see QueueVisitor) and assert
  /// the image ends with it.
  template <class V>
  void queues(V& v) {
    const std::uint64_t n_machine =
        read_count(r_, 3 + kPayloadWords,
                   "snapshot image rejected: machine-queue length exceeds "
                   "the remaining image");
    v.length(n_machine);
    for (std::uint64_t i = 0; i < n_machine; ++i) {
      Event e;
      e.time = r_.u64();
      e.seq = r_.u64();
      e.sink = read_sink(r_,
                         "snapshot image rejected: machine-queue sink word "
                         "exceeds 32 bits");
      IW_ASSERT_MSG(e.sink != kNoSink,
                    "snapshot image rejected: machine-queue record names "
                    "no sink");
      for (std::uint64_t& pw : e.payload.w) pw = r_.u64();
      v.machine(e);
    }
    // Each core section holds at least its two queue lengths.
    const std::uint64_t n_cores =
        read_count(r_, 2,
                   "snapshot image rejected: core count exceeds the "
                   "remaining image");
    v.cores(n_cores);
    for (std::size_t c = 0; c < n_cores; ++c) {
      const std::uint64_t n_irq =
          read_count(r_, 5,
                     "snapshot image rejected: IRQ-inbox length exceeds "
                     "the remaining image");
      v.length(n_irq);
      for (std::uint64_t i = 0; i < n_irq; ++i) {
        IrqEvent e;
        e.time = r_.u64();
        e.seq = r_.u64();
        e.origin = r_.u64();
        const std::int64_t vector = r_.i64();
        IW_ASSERT_MSG(vector >= 0 && vector < kNumIrqVectors,
                      "snapshot image rejected: queued IRQ vector outside "
                      "[0, 256)");
        e.vector = static_cast<std::int32_t>(vector);
        e.ipi = r_.b();
        v.irq(c, e);
      }
      const std::uint64_t n_cb =
          read_count(r_, 6 + kPayloadWords,
                     "snapshot image rejected: callback-inbox length "
                     "exceeds the remaining image");
      v.length(n_cb);
      for (std::uint64_t i = 0; i < n_cb; ++i) {
        CoreEvent e;
        e.time = r_.u64();
        e.seq = r_.u64();
        e.gen = r_.u64();
        e.ideal = r_.u64();
        const SinkId timer =
            read_sink(r_,
                      "snapshot image rejected: callback-inbox timer-sink "
                      "word exceeds 32 bits");
        e.sink = read_sink(r_,
                           "snapshot image rejected: callback-inbox sink "
                           "word exceeds 32 bits");
        IW_ASSERT_MSG((timer == kNoSink) != (e.sink == kNoSink),
                      "snapshot image rejected: callback-inbox record must "
                      "name exactly one of a timer sink and an event sink");
        for (std::uint64_t& pw : e.payload.w) pw = r_.u64();
        v.core(c, e, timer);
      }
    }
    IW_ASSERT_MSG(r_.remaining() == 0,
                  "snapshot image rejected: trailing words after the last "
                  "queue section (truncated or corrupt image)");
  }

  std::uint64_t fingerprint{0};
  Cycles at{0};
  std::uint64_t participants{0};
  std::span<const std::uint64_t> words;
  std::span<const std::uint64_t> ephemeral;

 private:
  SnapshotReader r_;
};

}  // namespace

Cycles Snapshot::at() const { return ImageDecoder(image_).at; }

std::uint64_t Snapshot::digest() const {
  struct Mixer : QueueVisitor {
    std::uint64_t h{kFnvOffset};
    void length(std::uint64_t n) { mix(h, n); }
    void cores(std::uint64_t n) { mix(h, n); }
    void machine(const Event& e) {
      mix(h, e.time);
      mix(h, e.seq);
      mix(h, e.sink);
      for (std::uint64_t wd : e.payload.w) mix(h, wd);
      mix(h, kRetiredClosureFlag);
    }
    void irq(std::size_t, const IrqEvent& e) {
      mix(h, e.time);
      mix(h, e.seq);
      mix(h, e.origin);
      mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(e.vector)));
      mix(h, e.ipi ? 1 : 0);
    }
    void core(std::size_t, const CoreEvent& e, SinkId timer) {
      mix(h, e.time);
      mix(h, e.seq);
      mix(h, e.gen);
      mix(h, e.ideal);
      mix(h, timer != kNoSink ? 1 : 0);
      mix(h, timer);
      mix(h, e.sink);
      for (std::uint64_t wd : e.payload.w) mix(h, wd);
      mix(h, kRetiredClosureFlag);
    }
  } m;
  ImageDecoder d(image_);
  mix(m.h, kFormatVersion);
  mix(m.h, d.at);
  mix(m.h, d.words.size());
  for (std::uint64_t w : d.words) mix(m.h, w);
  d.queues(m);
  return m.h;
}

Snapshot Snapshot::deserialize(const std::vector<std::uint64_t>& image) {
  QueueVisitor ignore;
  ImageDecoder(image).queues(ignore);
  return Snapshot(image);
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

  SnapshotWriter w;
  w.u64(Snapshot::kMagic);
  w.u64(Snapshot::kFormatVersion);
  w.u64(config_fingerprint(cfg_));
  w.u64(now());
  w.u64(participants_.size());

  // Digested words. Machine-level observable state first.
  const std::size_t words = w.begin_section();
  w.u64(cores_.size());
  w.u64(advances_);
  save_rng(w, rng_);
  w.u64(seq_by_source_.size());
  for (const auto& c : seq_by_source_) w.u64(c.v);
  for (const auto& c : ipis_by_source_) w.u64(c.v);

  // Per-core observable state (the inboxes follow in the queue section).
  for (const auto& c : cores_) {
    w.u64(c->clock_);
    w.b(c->irq_enabled_);
    w.u64(c->cur_irq_origin_);
    w.u64(c->irqs_delivered_);
    w.u64(c->irq_overhead_);
    w.u64(c->steps_);
  }

  SnapshotWriter eph;
  faults_.save_state(w, eph);

  // Participant blobs, length-prefixed in registration order.
  w.u64(participants_.size());
  for (const SnapshotParticipant* p : participants_) {
    const std::size_t blob = w.begin_section();
    p->save_state(w);
    w.end_section(blob);
  }
  w.end_section(words);

  // Ephemeral words: the fault cursors, then fast-forward accounting and
  // backoff (wall-clock heuristics, exact restore only).
  eph.u64(ff_cycles_);
  eph.u64(ff_steps_);
  eph.u64(ff_windows_);
  eph.u64(ff_paranoid_);
  eph.u64(ff_cooldown_);
  eph.u64(ff_backoff_);
  w.u64(eph.size());
  for (std::uint64_t x : eph.words()) w.u64(x);

  // Queues in (time, seq) order — the logical contents, not heap
  // layout — so two machines whose queues were filled under different
  // push interleavings write the same words.
  const std::vector<const Event*> mq = sorted_view(machine_queue_);
  w.u64(mq.size());
  for (const Event* e : mq) {
    w.u64(e->time);
    w.u64(e->seq);
    w.u64(e->sink);
    for (std::uint64_t pw : e->payload.w) w.u64(pw);
  }
  w.u64(cores_.size());
  for (const auto& c : cores_) {
    const std::vector<const IrqEvent*> irq = sorted_view(c->irq_inbox_);
    w.u64(irq.size());
    for (const IrqEvent* e : irq) {
      w.u64(e->time);
      w.u64(e->seq);
      w.u64(e->origin);
      w.i64(e->vector);
      w.b(e->ipi);
    }
    const std::vector<const CoreEvent*> cb = sorted_view(c->callback_inbox_);
    w.u64(cb.size());
    for (const CoreEvent* e : cb) {
      const SinkId timer =
          e->timer == nullptr ? kNoSink : timer_sink_id(e->timer);
      IW_ASSERT_MSG(e->timer == nullptr || timer != kNoSink,
                    "snapshot v2 cannot serialize a pending fire for an "
                    "unregistered TimerSink (register the timer with "
                    "Machine::register_timer_sink)");
      w.u64(e->time);
      w.u64(e->seq);
      w.u64(e->gen);
      w.u64(e->ideal);
      w.u64(timer);
      w.u64(e->sink);
      for (std::uint64_t pw : e->payload.w) w.u64(pw);
    }
  }
  return Snapshot(w.take());
}

void Machine::restore(const Snapshot& s) {
  IW_ASSERT_MSG(exec_ctx().machine != this,
                "restore() from inside this machine's execution context");
  IW_ASSERT_MSG(!per_core_drain_active_,
                "restore() during a per-core parallel drain");
  IW_ASSERT_MSG(parallel_ == nullptr || parallel_->quiescent(),
                "restore() with undelivered epoch outbox traffic");
  ImageDecoder d(s.image_);
  IW_ASSERT_MSG(d.fingerprint == config_fingerprint(cfg_),
                "snapshot fingerprint mismatch (different machine shape "
                "or seeds)");
  IW_ASSERT_MSG(d.participants == participants_.size(),
                "snapshot participant count mismatch (participants must "
                "be registered identically at snapshot and restore)");

  SnapshotReader r(d.words);
  SnapshotReader re(d.ephemeral);

  IW_ASSERT_MSG(r.u64() == cores_.size(), "snapshot core-section corrupt");
  advances_ = r.u64();
  restore_rng(r, rng_);
  IW_ASSERT_MSG(r.u64() == seq_by_source_.size(),
                "snapshot seq-section corrupt");
  for (auto& c : seq_by_source_) c.v = r.u64();
  for (auto& c : ipis_by_source_) c.v = r.u64();

  for (const auto& c : cores_) {
    c->clock_ = r.u64();
    c->irq_enabled_ = r.b();
    c->cur_irq_origin_ = r.u64();
    c->irqs_delivered_ = r.u64();
    c->irq_overhead_ = r.u64();
    c->steps_ = r.u64();
    c->fold_guard_ = 0;  // its folds belong to the replaced timeline
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

  // Refill every queue from the decoded records, resolving sink and
  // timer ids against THIS machine's tables: a same-instance restore
  // finds the original timers, a hydration requires the target to have
  // registered its sinks and timers in the donor's order (the lookups
  // abort otherwise).
  struct Refill : QueueVisitor {
    Machine& m;
    explicit Refill(Machine& machine) : m(machine) {}
    void cores(std::uint64_t n) {
      IW_ASSERT_MSG(n == m.cores_.size(), "snapshot core count mismatch");
    }
    void machine(const Event& e) {
      (void)m.event_sink(e.sink);
      m.machine_queue_.push(e);
    }
    void irq(std::size_t c, const IrqEvent& e) {
      m.cores_[c]->irq_inbox_.push(e);
    }
    void core(std::size_t c, CoreEvent e, SinkId timer) {
      if (timer != kNoSink) e.timer = m.timer_sink(timer);
      if (e.sink != kNoSink) (void)m.event_sink(e.sink);
      m.cores_[c]->callback_inbox_.push(e);
    }
  } refill(*this);
  machine_queue_.clear();
  for (const auto& c : cores_) {
    c->irq_inbox_.clear();
    c->callback_inbox_.clear();
  }
  d.queues(refill);

  // Rebuild the derived scheduling state: the now() cache is a pure
  // function of the (monotone) core clocks, and refresh_frontier marks
  // every core dirty so the next run recomputes all cached next-action
  // times and replays every leaf of the frontier tree.
  now_cache_ = 0;
  for (const auto& c : cores_) now_cache_ = std::max(now_cache_, c->clock_);
  refresh_frontier();
}

}  // namespace iw::hwsim
