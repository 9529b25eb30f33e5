// Deterministic checkpoint/restore for hwsim::Machine.
//
// A Snapshot is a complete capture of a machine's dynamic state at a
// point strictly between run_until() calls: core clocks and IRQ state,
// every event queue (machine sink events, per-core IRQ inboxes, per-core
// timer/sink-event inboxes), the per-source sequence and IPI provenance
// counters, the machine Rng, the FaultInjector's per-stream RNG states
// and counters, fast-forward accounting/backoff, and one opaque blob
// per registered SnapshotParticipant (timer devices, watchdogs,
// recovery layers, workload drivers). `Machine::restore(snap)` followed
// by `run_until(T)` is bit-identical — same traces, digests, and fault
// schedules — to the uninterrupted run, under every scheduler, steal
// mode, and fast-forward mode.
//
// A snapshot IS its format-v2 word image: Machine::snapshot() writes
// it once and holds nothing else. Pending work is plain data — a timer
// fire is its registered TimerSink id, a machine/core event its
// registered EventSink id plus an EventPayload — so the image hydrates
// a FRESH Machine built from the same MachineConfig with the same
// deterministic setup (participants, sinks, and timers registered in
// the same order), bit-identically to a same-instance restore. The one
// state snapshot() cannot encode is a pending fire of a TimerSink that
// never registered; it aborts with a diagnostic.
//
// What IS comparable across machines (and across scheduler/steal/ff
// configurations of the same scenario) is digest(): an FNV-1a hash
// over the digested state words plus the (time, seq)-ordered queue
// records (sink ids and payload words, never pointers).
// Wall-clock-heuristic state (fast-forward accounting, backoff, fault
// opportunity cursors) is restored exactly but kept in a separate
// non-digested section so digests stay equal across ff on/off. See
// DESIGN.md §9-§10.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

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

  /// Open a length-prefixed section: write a placeholder length word
  /// and return its position for end_section().
  std::size_t begin_section() {
    words_.push_back(0);
    return words_.size() - 1;
  }
  /// Close the section opened at `at`: its length word becomes the
  /// number of words written since.
  void end_section(std::size_t at) { words_[at] = words_.size() - at - 1; }

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
  explicit SnapshotReader(std::span<const std::uint64_t> words)
      : words_(words) {}

  std::uint64_t u64() {
    IW_ASSERT_MSG(pos_ < words_.size(), "snapshot word stream underrun");
    return words_[pos_++];
  }
  /// The next `n` words, consumed (a length-prefixed section's body).
  std::span<const std::uint64_t> take(std::size_t n) {
    IW_ASSERT_MSG(n <= remaining(), "snapshot word stream underrun");
    pos_ += n;
    return words_.subspan(pos_ - n, n);
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
  std::span<const std::uint64_t> words_;
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

/// One captured machine state, held as its self-contained v2 word
/// image: magic, version, config fingerprint, capture time and
/// participant count, then three length-prefixed sections — the
/// digested state words, the ephemeral words, and every queue as
/// plain-data records in (time, seq) order. Produced by
/// Machine::snapshot(); one validating decoder (snapshot.cpp) serves
/// deserialize(), digest() and Machine::restore(), which hydrates this
/// machine or a fresh one built from the same MachineConfig with
/// identical deterministic setup.
class Snapshot {
 public:
  static constexpr std::uint64_t kFormatVersion = 2;
  /// First word of every image ("IWSNAP\0\0" little-endian): lets the
  /// decoder reject arbitrary bytes before trusting lengths.
  static constexpr std::uint64_t kMagic = 0x0000'5041'4E53'5749ULL;

  /// Virtual time the snapshot was taken at (== machine.now()).
  [[nodiscard]] Cycles at() const;

  /// FNV-1a over the pointer-free state: version, at, the digested
  /// words, and every queue record with the same constant words the
  /// digest has always mixed. Comparable across machines and across
  /// scheduler × steal × ff configurations of the same scenario; also
  /// doubles as a final-state digest.
  [[nodiscard]] std::uint64_t digest() const;

  /// A copy of the image.
  [[nodiscard]] std::vector<std::uint64_t> serialize() const {
    return image_;
  }

  /// Validate `image` and wrap a copy. Aborts with a clear diagnostic on
  /// a bad magic word, a format version this build does not read, a
  /// length past the image, an IRQ vector out of range, a queued record
  /// whose sink words cannot name exactly one sink, or trailing words.
  /// The result restores into any machine with a matching config
  /// fingerprint; Machine::restore() resolves the recorded sink ids
  /// against that machine's dispatch tables.
  [[nodiscard]] static Snapshot deserialize(
      const std::vector<std::uint64_t>& image);

 private:
  friend class Machine;

  explicit Snapshot(std::vector<std::uint64_t> image)
      : image_(std::move(image)) {}

  std::vector<std::uint64_t> image_;
};

}  // namespace iw::hwsim
