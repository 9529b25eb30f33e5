// Test EventSink that runs registered actions. Payload word 0 names the
// action, so test-scheduled work travels as a plain sink event like
// every other queued event.
#pragma once

#include <deque>
#include <functional>
#include <utility>

#include "hwsim/machine.hpp"
#include "hwsim/sink.hpp"

namespace iw::hwsim {

class ActionSink final : public EventSink {
 public:
  using Action = std::function<void(Cycles at)>;

  explicit ActionSink(Machine& m)
      : machine_(m), id_(m.register_event_sink(this)) {}
  ~ActionSink() { machine_.unregister_event_sink(id_); }

  ActionSink(const ActionSink&) = delete;
  ActionSink& operator=(const ActionSink&) = delete;

  [[nodiscard]] SinkId id() const { return id_; }

  /// Register `action`; the returned payload names it.
  EventPayload add(Action action) {
    actions_.push_back(std::move(action));
    EventPayload p;
    p.w[0] = actions_.size() - 1;
    return p;
  }

  /// Register `action` and schedule it as a machine event at `t`.
  void at(Cycles t, Action action) {
    machine_.schedule_event(t, id_, add(std::move(action)));
  }

  /// Register `action` and post it as a core event on `core` at `t`.
  void at(Core& core, Cycles t, Action action) {
    core.post_event(t, id_, add(std::move(action)));
  }

  void on_machine_event(Machine&, Cycles at,
                        const EventPayload& p) override {
    actions_[p.w[0]](at);
  }
  void on_core_event(Core&, Cycles at, const EventPayload& p) override {
    actions_[p.w[0]](at);
  }

 private:
  Machine& machine_;
  SinkId id_;
  /// A deque: an action may register more while it runs.
  std::deque<Action> actions_;
};

}  // namespace iw::hwsim
