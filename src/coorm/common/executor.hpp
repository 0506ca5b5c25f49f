// Clock + deferred-execution interface.
//
// The RMS server is written against this interface so it can run on the
// discrete-event engine (simulation, as in the paper's evaluation) or on a
// wall-clock loop, and so tests can drive it manually.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "coorm/common/time.hpp"

namespace coorm {

namespace detail {
struct EventState {
  bool cancelled = false;
};
}  // namespace detail

/// Handle to a scheduled callback; cancelling is best-effort (a callback
/// already being dispatched still runs). A cancelled event is skipped
/// without advancing the clock, so the daemon can flush a connection early
/// and simply cancel its armed zero-delay flush event.
using EventHandle = std::shared_ptr<detail::EventState>;

class Executor {
 public:
  virtual ~Executor() = default;

  /// Current time.
  [[nodiscard]] virtual Time now() const = 0;

  /// Run `fn` at absolute time `at` (>= now()). Callbacks scheduled for the
  /// same time run in scheduling order.
  virtual EventHandle schedule(Time at, std::function<void()> fn) = 0;

  /// Run `fn` after `delay`.
  EventHandle after(Time delay, std::function<void()> fn) {
    return schedule(satAdd(now(), delay), std::move(fn));
  }

  static void cancel(const EventHandle& handle) {
    if (handle) handle->cancelled = true;
  }
};

/// The (time, sequence) event heap behind both executors, the
/// discrete-event Engine and the wall-clock IoExecutor: events pop in time
/// order, same-time events in push order. A binary heap over a plain
/// vector, so the due event is moved out rather than copied (a
/// std::priority_queue only exposes a const top()). Cancelled events stay
/// queued until popped; the caller skips them.
class EventQueue {
 public:
  struct Event {
    Time at;
    std::uint64_t seq;
    std::function<void()> fn;
    EventHandle state;
  };

  EventHandle push(Time at, std::function<void()> fn) {
    auto state = std::make_shared<detail::EventState>();
    heap_.push_back(Event{at, nextSeq_++, std::move(fn), state});
    std::push_heap(heap_.begin(), heap_.end(), later);
    return state;
  }

  /// Removes and returns the earliest event. Precondition: !empty().
  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Event event = std::move(heap_.back());
    heap_.pop_back();
    return event;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest queued event (cancelled ones included),
  /// kTimeInf when empty.
  [[nodiscard]] Time nextAt() const {
    return heap_.empty() ? kTimeInf : heap_.front().at;
  }

 private:
  static bool later(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }

  std::vector<Event> heap_;
  std::uint64_t nextSeq_ = 0;
};

}  // namespace coorm
