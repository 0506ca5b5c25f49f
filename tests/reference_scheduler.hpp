// Test-only oracle for the scheduling pass: Algorithm 4 rebuilt from the
// public building blocks (the live-RequestSet toView/fit/eqSchedule shims)
// with plain binary view algebra. It shares no code with
// Scheduler::schedulePass beyond those blocks: no pass-to-pass cache, no
// pool, no N-ary batching, no occupation-view reuse. Every pass, cold or
// warm, at any thread count, must reproduce it bit for bit.
#pragma once

#include <span>
#include <vector>

#include "coorm/rms/scheduler.hpp"

namespace coorm::testing_reference {

/// Schedules `apps` (connection order) at `now`, writing request results
/// into the live requests and both views into each AppSchedule.
inline void referenceSchedule(const Machine& machine,
                              std::span<AppSchedule> apps, Time now,
                              bool strict) {
  const Scheduler plain(machine);
  View vnp = plain.machineView();
  View vp = plain.machineView();
  for (AppSchedule& app : apps) {
    vnp -= Scheduler::toView(*app.preAllocations);
  }

  std::vector<View> npOcc;
  std::vector<View> npFitted;
  for (AppSchedule& app : apps) {
    const View ownStartedPa = Scheduler::toView(*app.preAllocations);
    app.nonPreemptiveView = ownStartedPa + vnp;
    app.nonPreemptiveView.clampMin(0);

    const View occPa =
        Scheduler::fit(*app.preAllocations, app.nonPreemptiveView, now);

    npOcc.push_back(Scheduler::toView(*app.nonPreemptible));
    View npAvailable = ownStartedPa + occPa - npOcc.back();
    npAvailable.clampMin(0);
    npFitted.push_back(Scheduler::fit(*app.nonPreemptible, npAvailable, now));

    vnp -= occPa;
  }

  for (const View& occ : npOcc) vp -= occ;
  for (const View& occ : npFitted) vp -= occ;
  vp.clampMin(0);
  Scheduler::eqSchedule(apps, vp, now, strict);
}

}  // namespace coorm::testing_reference
