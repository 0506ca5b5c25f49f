// Real-time socket event loop base: the backend-independent half of the
// wall-clock `Executor`.
//
// The RMS server is written against the Executor interface so it can run on
// the discrete-event engine (the paper's evaluation) or on a wall-clock
// loop; IoExecutor is the wall-clock loop. One thread owns the loop and
// interleaves two event sources:
//  - timers: the (time, sequence) EventQueue sim::Engine uses too,
//    driven by the monotonic clock (CLOCK_MONOTONIC via steady_clock), so
//    wall-clock jumps never reorder events. Same-time callbacks run in
//    scheduling order — the property the pipelined Server's fallback
//    commit event relies on;
//  - file descriptors: kReadable/kWritable interest registered per fd, with
//    the blocking wait bounded by the next due timer.
//
// The readiness mechanism is the only thing backends differ in: poll(2)
// (PollExecutor, portable, O(watched) per wakeup) or epoll (EpollExecutor,
// Linux, O(ready) per wakeup — the C100k path). The `Server`, pipeline,
// `Daemon` and `RmsClient` run unmodified on either.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>

#include "coorm/common/executor.hpp"
#include "coorm/common/runtime_options.hpp"
#include "coorm/common/time.hpp"

namespace coorm::net {

class IoExecutor : public Executor {
 public:
  /// Events the callback is told about: readable, writable, or
  /// error/hangup conditions mapped onto kError.
  enum : short {
    kReadable = 0x1,
    kWritable = 0x2,
    kError = 0x4,
  };
  using IoCallback = std::function<void(short events)>;

  IoExecutor();

  /// Milliseconds since the loop was created (monotonic).
  [[nodiscard]] Time now() const override;

  /// Jump the clock forward so now() reads at least `t`. Used after journal
  /// replay: restored state carries absolute timestamps from the previous
  /// process, so the loop's clock must not restart behind them. Timers
  /// already scheduled keep their absolute times — ones now in the past
  /// fire at the next dispatch, exactly as if the daemon had been running
  /// the whole time. Never moves the clock backwards.
  void advanceTo(Time t);

  /// Run `fn` at absolute time `at` on the loop thread; times in the past
  /// run as soon as the loop reaches its timer dispatch. Same-time
  /// callbacks run in scheduling order.
  EventHandle schedule(Time at, std::function<void()> fn) override;

  /// Register interest in `events` (kReadable|kWritable) on `fd`. One
  /// watcher per fd; `cb` runs on the loop thread with the triggered
  /// events. kError is always reported regardless of the mask.
  virtual void watch(int fd, short events, IoCallback cb) = 0;

  /// Change the event mask of a watched fd (e.g. enable kWritable while an
  /// outbound buffer drains).
  virtual void updateEvents(int fd, short events) = 0;

  /// Remove the watcher. Safe from inside any callback (including the
  /// watcher's own). Must be called before the fd is closed.
  virtual void unwatch(int fd) = 0;

  /// One wait + dispatch cycle, blocking at most `maxWait` ms (bounded by
  /// the next due timer). Returns true if any callback was dispatched.
  bool runOne(Time maxWait);

  /// Loop until stop() is called or there is nothing left to wait for
  /// (no watched fds and no pending timers). `slice` bounds each wait so
  /// an external stop flag (e.g. a signal handler's) is honoured promptly.
  void run(Time slice = msec(200));

  void stop() { stopped_ = true; }

  [[nodiscard]] virtual std::size_t watcherCount() const = 0;
  [[nodiscard]] std::size_t pendingTimers() const { return timers_.size(); }

 protected:
  /// One blocking readiness wait of at most `timeout` ms (>= 0) followed by
  /// IO callback dispatch. Returns true if any callback ran. Called with
  /// the timeout already bounded by the next due timer; timer dispatch
  /// happens in runOne() after this returns.
  virtual bool pollOnce(Time timeout) = 0;

 private:
  /// Dispatch every timer due at `deadline` or earlier.
  bool dispatchTimers(Time deadline);

  std::chrono::steady_clock::time_point start_;
  EventQueue timers_;
  bool stopped_ = false;
};

/// Constructs the requested readiness backend. Falls back to poll(2) when
/// the epoll backend is unavailable on this kernel (probe at creation), so
/// callers can request kEpoll unconditionally.
std::unique_ptr<IoExecutor> makeIoExecutor(IoBackend backend);

/// Human-readable backend name ("poll" / "epoll") for logs and tools.
const char* toString(IoBackend backend);

}  // namespace coorm::net
