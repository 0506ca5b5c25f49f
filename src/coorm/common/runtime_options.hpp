// The one runtime-tuning surface shared by every entry point.
//
// Two knobs: the re-scheduling interval and strict equi-partitioning.
// Tools parse into RuntimeOptions once (tools/cli_options.hpp);
// Server::Config::fromRuntime() projects them into the server's config.
// Endpoints stay in cli::Options — they are per-tool wiring, not runtime
// tuning. There is no switch for the scheduler's pass-to-pass cache (a
// cold cache is the full recompute), for the event loop (epoll is the one
// real-time loop) nor for a pass's thread count (a pass runs on the loop
// thread).
//
// Both knobs keep the paper-faithful default.
#pragma once

#include "coorm/common/time.hpp"

namespace coorm {

struct RuntimeOptions {
  /// Re-scheduling interval (paper: 1 s).
  Time reschedInterval = sec(1);
  /// Strict equi-partitioning (no filling).
  bool strictEquiPartition = false;
};

}  // namespace coorm
