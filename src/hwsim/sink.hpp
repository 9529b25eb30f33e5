// Portable event dispatch: tagged sink IDs + plain-data payloads.
//
// Sink ids are the only way to post a scheduled event: a queued event
// is plain words, so a captured machine image can hydrate a *different*
// Machine instance (scenarioserver fan-out) and every snapshot can be
// serialized. The pattern extends the TimerSink idiom to every
// subsystem that schedules work: the receiver object registers itself
// with the machine once at construction time and is assigned a SinkId
// (its position in the per-machine dispatch table); queued events then
// carry only {sink id, payload words}. Because workload construction is
// already required to be deterministic (participant registration order
// and event-seq provenance depend on it), two machines built from the
// same MachineConfig by the same setup code assign identical ids to
// corresponding sinks — which is exactly what makes the encoding
// portable across instances.
//
// Payload contents are up to the sink: core ids, vectors, retry
// attempts, generations, registry indices — anything plain. Pointers
// into a specific machine instance are forbidden by contract (they
// would defeat portability silently; nothing can check this, so it is
// documented here and in DESIGN.md §10).
#pragma once

#include <cstdint>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace iw::hwsim {

class Core;
class Machine;

/// Index into a machine's dispatch table. Assigned by registration
/// order; stable for the machine's lifetime (unregistration leaves a
/// hole, ids are never reused).
using SinkId = std::uint32_t;
inline constexpr SinkId kNoSink = ~SinkId{0};

/// Plain-data argument block carried by a sink-dispatched event. Four
/// words cover every current user (the widest, signal delivery, uses
/// three); widen here if a future sink needs more — the snapshot format
/// serializes the whole block.
struct EventPayload {
  std::uint64_t w[4]{0, 0, 0, 0};
};

/// Receiver of sink-dispatched events. A sink that only ever receives
/// one of the two event kinds overrides just that entry point; the
/// defaults abort, so a payload routed to the wrong queue is a loud
/// format bug rather than a silent no-op.
class EventSink {
 public:
  /// Machine-level event (scheduled via Machine::schedule_event).
  virtual void on_machine_event(Machine& machine, Cycles at,
                                const EventPayload& payload);
  /// Core-local event (scheduled via Core::post_event).
  virtual void on_core_event(Core& core, Cycles at,
                             const EventPayload& payload);

 protected:
  ~EventSink() = default;
};

inline void EventSink::on_machine_event(Machine&, Cycles,
                                        const EventPayload&) {
  IW_ASSERT_MSG(false, "EventSink: machine-level event dispatched to a "
                       "sink that does not handle machine events");
}

inline void EventSink::on_core_event(Core&, Cycles, const EventPayload&) {
  IW_ASSERT_MSG(false, "EventSink: core-local event dispatched to a sink "
                       "that does not handle core events");
}

}  // namespace iw::hwsim
