#include "coorm/sim/engine.hpp"

#include "coorm/common/check.hpp"

namespace coorm {

EventHandle Engine::schedule(Time at, std::function<void()> fn) {
  COORM_CHECK(at >= now_);
  return queue_.push(at, std::move(fn));
}

bool Engine::step() {
  while (!queue_.empty()) {
    EventQueue::Event event = queue_.pop();
    if (event.state->cancelled) continue;  // does not advance the clock
    now_ = std::max(now_, event.at);
    event.fn();
    return true;
  }
  return false;
}

std::uint64_t Engine::run() {
  stopped_ = false;
  std::uint64_t dispatched = 0;
  while (!stopped_ && step()) ++dispatched;
  return dispatched;
}

std::uint64_t Engine::runUntil(Time until) {
  stopped_ = false;
  std::uint64_t dispatched = 0;
  while (!stopped_ && !queue_.empty() && queue_.nextAt() <= until) {
    if (step()) ++dispatched;
  }
  now_ = std::max(now_, until);
  return dispatched;
}

}  // namespace coorm
