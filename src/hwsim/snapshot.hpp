// Deterministic checkpoint/restore for hwsim::Machine.
//
// A Snapshot is a complete capture of a machine's dynamic state at a
// point strictly between run_until() calls: core clocks and IRQ state,
// every event queue (machine callbacks, per-core IRQ inboxes, per-core
// timer/callback inboxes), the per-source sequence and IPI provenance
// counters, the machine Rng, the FaultInjector's per-stream RNG states
// and counters, fast-forward accounting/backoff, and one opaque blob
// per registered SnapshotParticipant (timer devices, watchdogs,
// recovery layers, workload drivers). `Machine::restore(snap)` followed
// by `run_until(T)` is bit-identical — same traces, digests, and fault
// schedules — to the uninterrupted run, under every scheduler, steal
// mode, and fast-forward mode.
//
// Restore contract (format v2): pending work is plain data. Timer
// fires carry a registered TimerSink id, machine/core events carry a
// registered EventSink id plus an EventPayload — so Snapshot::
// serialize() produces a self-contained word image that hydrates a
// FRESH Machine built from the same MachineConfig with the same
// deterministic setup (participants, sinks, and timers registered in
// the same order), bit-identically to a same-instance restore. No
// queued event holds a closure, so every snapshot serializes; the one
// exception is a pending fire of a TimerSink that never registered,
// which serialize() rejects with a diagnostic.
//
// What IS comparable across machines (and across scheduler/steal/ff
// configurations of the same scenario) is digest(): an FNV-1a hash
// over the pointer-free word image plus the (time, seq)-sorted logical
// queue contents (sink ids and payload words, never pointers).
// Wall-clock-heuristic state (fast-forward accounting, backoff, fault
// opportunity cursors) is restored exactly but kept in a separate
// non-digested section so digests stay equal across ff on/off. See
// DESIGN.md §9-§10.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "hwsim/event_queue.hpp"

namespace iw::hwsim {

/// Append-only word stream the snapshot state is serialized into.
/// Everything is widened to 64 bits: the format stays trivially
/// versionable and the digest covers exactly what was written.
class SnapshotWriter {
 public:
  void u64(std::uint64_t v) { words_.push_back(v); }
  void i64(std::int64_t v) { words_.push_back(static_cast<std::uint64_t>(v)); }
  void b(bool v) { words_.push_back(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    words_.push_back(bits);
  }

  [[nodiscard]] std::size_t size() const { return words_.size(); }
  [[nodiscard]] const std::vector<std::uint64_t>& words() const {
    return words_;
  }
  [[nodiscard]] std::vector<std::uint64_t> take() { return std::move(words_); }

 private:
  std::vector<std::uint64_t> words_;
};

/// Cursor over a snapshot word stream. Underruns abort: a participant
/// reading past its section is a format bug, not a recoverable error.
class SnapshotReader {
 public:
  explicit SnapshotReader(const std::vector<std::uint64_t>& words)
      : words_(words) {}

  std::uint64_t u64() {
    IW_ASSERT_MSG(pos_ < words_.size(), "snapshot word stream underrun");
    return words_[pos_++];
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool b() { return u64() != 0; }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return words_.size() - pos_; }

 private:
  const std::vector<std::uint64_t>& words_;
  std::size_t pos_{0};
};

// Serialization helpers for the two stateful common types every
// participant ends up carrying. Kept here (not in common/) so common/
// stays free of snapshot-format knowledge.
inline void save_rng(SnapshotWriter& w, const Rng& rng) {
  const Rng::State s = rng.state();
  for (std::uint64_t x : s.s) w.u64(x);
  w.f64(s.cached_normal);
  w.b(s.has_cached_normal);
}

inline void restore_rng(SnapshotReader& r, Rng& rng) {
  Rng::State s;
  for (std::uint64_t& x : s.s) x = r.u64();
  s.cached_normal = r.f64();
  s.has_cached_normal = r.b();
  rng.set_state(s);
}

inline void save_stats(SnapshotWriter& w, const OnlineStats& st) {
  const OnlineStats::State s = st.state();
  w.u64(s.n);
  w.f64(s.mean);
  w.f64(s.m2);
  w.f64(s.min);
  w.f64(s.max);
  w.f64(s.sum);
}

inline void restore_stats(SnapshotReader& r, OnlineStats& st) {
  OnlineStats::State s;
  s.n = r.u64();
  s.mean = r.f64();
  s.m2 = r.f64();
  s.min = r.f64();
  s.max = r.f64();
  s.sum = r.f64();
  st.set_state(s);
}

/// Anything with dynamic state the machine cannot see — timer devices,
/// watchdog generations, retry layers, heartbeat supervisors, workload
/// drivers — implements this and registers with the machine
/// (Machine::register_snapshot_participant). save_state/restore_state
/// must write/read the exact same word counts for a given object; the
/// machine length-prefixes each section and asserts on mismatch.
/// Registration order is the serialization order, so workload setup
/// must construct participants deterministically (it already must, for
/// event-seq determinism).
class SnapshotParticipant {
 public:
  virtual void save_state(SnapshotWriter& w) const = 0;
  virtual void restore_state(SnapshotReader& r) = 0;

 protected:
  ~SnapshotParticipant() = default;
};

/// One captured machine state. Produced by Machine::snapshot(),
/// consumed by Machine::restore() — on the same instance, or (via
/// serialize()/deserialize()) on a fresh machine built from the same
/// MachineConfig with identical deterministic setup.
struct Snapshot {
  static constexpr std::uint64_t kFormatVersion = 2;
  /// First word of every serialized image ("IWSNAP\0\0" little-endian):
  /// lets deserialize() reject arbitrary bytes before trusting lengths.
  static constexpr std::uint64_t kMagic = 0x0000'5041'4E53'5749ULL;

  std::uint64_t version{kFormatVersion};
  /// Hash of the immutable configuration (core count, seeds) — restore
  /// refuses a snapshot from a differently-shaped machine. Scheduler,
  /// thread count, steal, and ff mode are deliberately excluded: they
  /// are execution strategies, not state, and may change between
  /// snapshot and restore.
  std::uint64_t fingerprint{0};
  /// Virtual time the snapshot was taken at (== machine.now()).
  Cycles at{0};
  /// Digested state image: everything semantically observable.
  std::vector<std::uint64_t> words;
  /// Restored-but-not-digested state: fast-forward accounting/backoff
  /// and fault opportunity/script cursors. Exact restore needs them;
  /// including them in the digest would break digest equality across
  /// ff on/off (ff legitimately skips fault *opportunities* inside
  /// proven-quiet windows without changing any draw).
  std::vector<std::uint64_t> ephemeral;
  /// Value-copies of the event queues. Every record is plain data; a
  /// same-instance capture's timer fires also keep their TimerSink
  /// pointer (restore re-resolves registered ones from `timer_sink`).
  TimedQueue<Event> machine_queue;
  struct CoreQueues {
    TimedQueue<IrqEvent> irq;
    TimedQueue<CoreEvent> callbacks;
  };
  std::vector<CoreQueues> cores;
  std::size_t participant_count{0};

  /// FNV-1a over the pointer-free image: version, at, `words`, and the
  /// (time, seq)-sorted logical contents of every queue. Comparable
  /// across machines and across scheduler × steal × ff configurations
  /// of the same scenario; also doubles as a final-state digest.
  [[nodiscard]] std::uint64_t digest() const;

  /// Approximate retained size, for ring-capacity decisions.
  [[nodiscard]] std::size_t footprint_words() const;

  /// Self-contained v2 word image: magic, version, fingerprint, state
  /// words, and every queue as plain-data records (timer-sink ids,
  /// event-sink ids, payloads). Aborts with a diagnostic if a pending
  /// fire belongs to an unregistered timer.
  [[nodiscard]] std::vector<std::uint64_t> serialize() const;

  /// Rebuild a Snapshot from a serialized image. Aborts with a clear
  /// diagnostic on a bad magic word, a format version this build does
  /// not read, a length past the image, an IRQ vector out of range, or
  /// a queued record whose sink words cannot name exactly one sink.
  /// The result restores into any machine with a matching
  /// config fingerprint; Machine::restore() resolves the recorded sink
  /// ids against that machine's dispatch tables.
  [[nodiscard]] static Snapshot deserialize(
      const std::vector<std::uint64_t>& image);
};

/// Bounded FIFO ring of checkpoints ordered by capture time. Backs the
/// `--checkpoint-every=N` harness flag and the restore-point search in
/// tools/ttreplay and tools/fault_bisect.
class CheckpointRing {
 public:
  explicit CheckpointRing(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Append a checkpoint (evicting the oldest at capacity). Capture
  /// times must be non-decreasing.
  void push(Snapshot snap) {
    IW_ASSERT_MSG(snaps_.empty() || snaps_.back().at <= snap.at,
                  "CheckpointRing: checkpoints must be pushed in time order");
    if (snaps_.size() == capacity_) snaps_.pop_front();
    snaps_.push_back(std::move(snap));
  }

  /// Latest checkpoint with at <= t, or nullptr if none retained.
  [[nodiscard]] const Snapshot* nearest_at_or_before(Cycles t) const {
    for (auto it = snaps_.rbegin(); it != snaps_.rend(); ++it) {
      if (it->at <= t) return &*it;
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t size() const { return snaps_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return snaps_.empty(); }
  /// Oldest-first indexed access.
  [[nodiscard]] const Snapshot& at(std::size_t i) const {
    IW_ASSERT(i < snaps_.size());
    return snaps_[i];
  }

 private:
  std::size_t capacity_;
  std::deque<Snapshot> snaps_;
};

}  // namespace iw::hwsim
