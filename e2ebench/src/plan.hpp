// Seeded workload plans for the end-to-end benchmark.
//
// A plan is everything the benchmark feeds the RMS: the machine, the
// background population (PSAs and evolving AMRs), the open-loop schedule
// of rigid-job arrivals and the probe request sizes. It is a pure function
// of (workload, seed, seconds): the same arguments give a byte-identical
// `serialize()` output, which the self-test pins.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coorm/amr/speedup.hpp"
#include "coorm/common/ids.hpp"
#include "coorm/common/time.hpp"
#include "coorm/rms/machine.hpp"

namespace e2e {

/// The three named workloads (README.md says why each exists).
enum class Workload { kRpcBare, kLeaseSteady, kJobChurn };

[[nodiscard]] std::optional<Workload> parseWorkload(std::string_view name);
[[nodiscard]] const char* toString(Workload workload);

/// Probe-only cluster: every workload's probes request on cluster 0, and
/// no population app ever does.
inline constexpr coorm::ClusterId kProbeCluster{0};

/// Probe i alternates between the two sizes of row i. The sizes occupy
/// disjoint bits, so any sum of live probe holdings decomposes uniquely:
/// the watcher recovers each probe's holding from one view value.
inline constexpr coorm::NodeCount kProbeSizes[2][2] = {{1, 2}, {4, 8}};
inline constexpr coorm::NodeCount kProbeMask[2] = {3, 12};

/// Fixed re-scheduling interval of every workload (recorded in each run):
/// one tick of the RMS clock, so pass cost, not the timer, dominates the
/// start wait of loaded workloads.
inline constexpr coorm::Time kReschedInterval = coorm::msec(1);

struct PsaPlan {
  coorm::ClusterId cluster{};
  coorm::NodeCount maxNodes = 1;
  coorm::Time taskDuration = 0;
  std::uint64_t rngSeed = 0;
};

struct AmrPlan {
  coorm::ClusterId cluster{};
  coorm::NodeCount preallocNodes = 0;
  std::vector<double> sizesMiB;
};

struct Arrival {
  double atSeconds = 0;  ///< offset from the rig's start
  coorm::ClusterId cluster{};
  coorm::NodeCount nodes = 0;
  coorm::Time duration = 0;
};

struct Plan {
  Workload workload = Workload::kRpcBare;
  std::uint64_t seed = 0;
  coorm::Machine machine;
  bool journal = false;
  std::vector<PsaPlan> psas;
  std::vector<AmrPlan> amrs;
  /// Speed-up model of every AMR: the paper's coefficients scaled down so
  /// steps take tens of milliseconds and allocations evolve within a run.
  coorm::SpeedupParams amrSpeedup;
  std::vector<Arrival> arrivals;
};

/// Arrival rate of the job-churn open loop (jobs per second).
inline constexpr double kArrivalRate = 20.0;

/// Builds the plan. `horizonSeconds` bounds the arrival schedule; it must
/// cover set-up plus the measured window.
[[nodiscard]] Plan makePlan(Workload workload, std::uint64_t seed,
                            double horizonSeconds);

/// Canonical byte rendering of a plan (the determinism witness).
[[nodiscard]] std::string serialize(const Plan& plan);

}  // namespace e2e
