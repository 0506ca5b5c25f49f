// The one runtime-tuning surface shared by every entry point.
//
// Three knobs: scheduler worker threads, the re-scheduling interval and
// strict equi-partitioning. Tools parse into RuntimeOptions once
// (tools/cli_options.hpp); Server::Config::fromRuntime() and
// SchedulerOptions(const RuntimeOptions&) project out the layer-specific
// subsets. Endpoints stay in cli::Options — they are per-tool wiring, not
// runtime tuning. There is no switch for the scheduler's pass-to-pass
// cache (a cold cache is the full recompute) nor for the event loop
// (epoll is the one real-time loop).
//
// Every knob keeps the paper-faithful default; threads change only
// latency, never a schedule.
#pragma once

#include "coorm/common/time.hpp"

namespace coorm {

struct RuntimeOptions {
  /// Scheduler worker threads (>= 1; 1 = serial, no OS threads spawned).
  int threads = 1;
  /// Re-scheduling interval (paper: 1 s).
  Time reschedInterval = sec(1);
  /// Strict equi-partitioning (no filling).
  bool strictEquiPartition = false;
};

}  // namespace coorm
