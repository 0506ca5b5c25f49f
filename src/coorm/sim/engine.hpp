// Discrete-event simulation engine.
//
// The paper evaluates CooRMv2 with a discrete-event simulator built from
// its real-life prototype by replacing remote calls with direct function
// calls and sleeps with simulator events (§5). This engine provides the
// event loop: a priority queue ordered by (time, insertion sequence), which
// makes runs fully deterministic.
#pragma once

#include <cstdint>
#include <functional>

#include "coorm/common/executor.hpp"
#include "coorm/common/time.hpp"

namespace coorm {

class Engine final : public Executor {
 public:
  Engine() = default;

  [[nodiscard]] Time now() const override { return now_; }

  EventHandle schedule(Time at, std::function<void()> fn) override;

  /// Process events until the queue is empty or stop() is called.
  /// Returns the number of events dispatched.
  std::uint64_t run();

  /// Process events with time <= until (advancing now() to `until` at the
  /// end even if the queue drains early). Returns events dispatched.
  std::uint64_t runUntil(Time until);

  /// Dispatch a single event; returns false if the queue is empty.
  bool step();

  /// Make run()/runUntil() return after the current event.
  void stop() { stopped_ = true; }

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pendingEvents() const { return queue_.size(); }

  /// Timestamp of the next queued event, kTimeInf when the queue is empty.
  /// Cancelled events still count until they are popped, so this is a
  /// lower bound on the time of the next event actually dispatched. Lets
  /// a driver bound step() against a horizon without popping (the
  /// server-pipeline benchmark's drive loop; see also runUntil()).
  [[nodiscard]] Time nextEventAt() const { return queue_.nextAt(); }

 private:
  EventQueue queue_;
  Time now_ = 0;
  bool stopped_ = false;
};

}  // namespace coorm
