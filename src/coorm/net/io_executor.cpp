#include "coorm/net/io_executor.hpp"

#include <unistd.h>

#include <utility>

#include "coorm/net/epoll_executor.hpp"
#include "coorm/net/poll_executor.hpp"

namespace coorm::net {

IoExecutor::IoExecutor() : start_(std::chrono::steady_clock::now()) {}

Time IoExecutor::now() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void IoExecutor::advanceTo(Time t) {
  const Time current = now();
  if (t <= current) return;
  start_ -= std::chrono::milliseconds(t - current);
}

EventHandle IoExecutor::schedule(Time at, std::function<void()> fn) {
  // Clamp to now: the Executor contract says `at >= now()`, but a
  // real-time caller computing `lastPass + interval` can land slightly in
  // the past — run it at the next timer dispatch instead of rejecting.
  return timers_.push(std::max(at, now()), std::move(fn));
}

bool IoExecutor::dispatchTimers(Time deadline) {
  bool any = false;
  while (!timers_.empty() && timers_.nextAt() <= deadline) {
    EventQueue::Event timer = timers_.pop();
    if (timer.state->cancelled) continue;
    timer.fn();
    any = true;
  }
  return any;
}

bool IoExecutor::runOne(Time maxWait) {
  // Bound the wait by the next pending timer (cancelled timers still bound
  // it — they are popped for free when due).
  Time timeout = std::max<Time>(maxWait, 0);
  if (!timers_.empty()) {
    const Time untilTimer = std::max<Time>(timers_.nextAt() - now(), 0);
    timeout = std::min(timeout, untilTimer);
  }

  bool any = pollOnce(timeout);
  any = dispatchTimers(now()) || any;
  return any;
}

void IoExecutor::run(Time slice) {
  stopped_ = false;
  while (!stopped_ && (watcherCount() > 0 || !timers_.empty())) {
    runOne(slice);
  }
}

std::unique_ptr<IoExecutor> makeIoExecutor(IoBackend backend) {
  if (backend == IoBackend::kEpoll && EpollExecutor::available()) {
    return std::make_unique<EpollExecutor>();
  }
  return std::make_unique<PollExecutor>();
}

const char* toString(IoBackend backend) {
  return backend == IoBackend::kEpoll ? "epoll" : "poll";
}

}  // namespace coorm::net
