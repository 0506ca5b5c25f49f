// The one runtime-tuning surface shared by every entry point.
//
// Four knobs: scheduler worker threads, the re-scheduling interval, strict
// equi-partitioning and the io readiness backend. Tools parse into
// RuntimeOptions once (tools/cli_options.hpp); Server::Config::fromRuntime()
// and SchedulerOptions(const RuntimeOptions&) project out the
// layer-specific subsets. Endpoints stay in cli::Options — they are
// per-tool wiring, not runtime tuning. There is no switch for the
// scheduler's pass-to-pass cache: a cold cache is the full recompute.
//
// Every knob keeps the paper-faithful default; threads and the io backend
// change only latency, never a schedule.
#pragma once

#include "coorm/common/time.hpp"

namespace coorm {

/// Socket readiness backend for the real-time executor (net::IoExecutor).
/// Both deliver the same callback semantics and timer ordering; epoll is
/// O(ready) per wakeup instead of O(watched) and is the default on Linux,
/// with poll(2) kept as the portable fallback (and auto-selected when
/// epoll_create1 is unavailable).
enum class IoBackend {
  kPoll,
  kEpoll,
};

struct RuntimeOptions {
  /// Scheduler worker threads (>= 1; 1 = serial, no OS threads spawned).
  int threads = 1;
  /// Re-scheduling interval (paper: 1 s).
  Time reschedInterval = sec(1);
  /// Strict equi-partitioning (no filling).
  bool strictEquiPartition = false;
  /// IO readiness backend for daemon/client event loops (--io-backend).
  /// Scheduling output is identical either way; only wakeup cost differs.
  IoBackend ioBackend = IoBackend::kEpoll;
};

}  // namespace coorm
