#include "plan.hpp"

#include <cmath>
#include <sstream>

#include "coorm/amr/working_set.hpp"
#include "coorm/common/rng.hpp"

namespace e2e {

using namespace coorm;

namespace {

// Machine of the populated workloads: the probe cluster, four PSA
// clusters with a little more capacity than their PSAs' leases (the slack
// is what job-churn's rigid jobs start on) and one AMR cluster.
constexpr int kPsaClusters = 4;
constexpr NodeCount kPsaClusterNodes = 64;
constexpr int kPsasPerCluster = 32;
constexpr NodeCount kAmrClusterNodes = 256;
constexpr int kAmrs = 8;
constexpr NodeCount kAmrPrealloc = 32;
constexpr double kAmrPeakMiB = 15000.0;  // ~27 nodes at 75 % efficiency
constexpr int kAmrSteps = 4000;          // outlasts any run
constexpr NodeCount kProbeClusterNodes = 16;
constexpr NodeCount kBareClusterNodes = 128;

Machine populatedMachine() {
  Machine machine;
  machine.clusters.push_back({kProbeCluster, kProbeClusterNodes});
  for (int c = 1; c <= kPsaClusters; ++c) {
    machine.clusters.push_back({ClusterId{c}, kPsaClusterNodes});
  }
  machine.clusters.push_back({ClusterId{kPsaClusters + 1}, kAmrClusterNodes});
  return machine;
}

}  // namespace

std::optional<Workload> parseWorkload(std::string_view name) {
  if (name == "rpc-bare") return Workload::kRpcBare;
  if (name == "lease-steady") return Workload::kLeaseSteady;
  if (name == "job-churn") return Workload::kJobChurn;
  return std::nullopt;
}

const char* toString(Workload workload) {
  switch (workload) {
    case Workload::kRpcBare:
      return "rpc-bare";
    case Workload::kLeaseSteady:
      return "lease-steady";
    case Workload::kJobChurn:
      return "job-churn";
  }
  return "?";
}

Plan makePlan(Workload workload, std::uint64_t seed, double horizonSeconds) {
  Plan plan;
  plan.workload = workload;
  plan.seed = seed;
  // The paper's coefficients divided by 100: efficiencies (hence node
  // counts) are unchanged, steps last ~50 ms instead of ~5 s.
  const SpeedupParams paper = paperSpeedupParams();
  plan.amrSpeedup = {paper.a / 100, paper.b / 100, paper.c / 100,
                     paper.d / 100};
  if (workload == Workload::kRpcBare) {
    plan.machine = Machine::single(kBareClusterNodes);
    return plan;
  }

  plan.machine = populatedMachine();
  // Only job-churn journals. With passes of ~1 ms, lease-steady's figures
  // followed the shared disk's fsync latency (p99 0.2-4 ms, changing from
  // second to second) instead of the steady-state pass path it exists for.
  plan.journal = workload == Workload::kJobChurn;
  Rng rng(seed);
  for (int c = 1; c <= kPsaClusters; ++c) {
    for (int i = 0; i < kPsasPerCluster; ++i) {
      PsaPlan psa;
      psa.cluster = ClusterId{c};
      psa.maxNodes = 1;
      // Hour-long tasks: a PSA's lease stays put unless its view moves.
      psa.taskDuration = sec(rng.uniformInt(3600, 7200));
      psa.rngSeed = rng.engine()();
      plan.psas.push_back(psa);
    }
  }
  WorkingSetParams wsParams;
  wsParams.steps = kAmrSteps;
  const WorkingSetModel wsModel(wsParams);
  for (int i = 0; i < kAmrs; ++i) {
    Rng child = rng.fork();
    AmrPlan amr;
    amr.cluster = ClusterId{kPsaClusters + 1};
    amr.preallocNodes = kAmrPrealloc;
    amr.sizesMiB = wsModel.generateSizesMiB(child, kAmrPeakMiB);
    plan.amrs.push_back(std::move(amr));
  }

  if (workload == Workload::kJobChurn) {
    // Open loop: exponential inter-arrival gaps at a fixed mean rate.
    Rng arrivals = rng.fork();
    double at = 0.0;
    while (true) {
      at += -std::log(1.0 - arrivals.uniformReal(0.0, 1.0)) / kArrivalRate;
      if (at > horizonSeconds) break;
      Arrival job;
      job.atSeconds = at;
      job.cluster = ClusterId{
          static_cast<std::int32_t>(arrivals.uniformInt(1, kPsaClusters))};
      job.nodes = arrivals.uniformInt(1, 8);
      job.duration = msec(arrivals.uniformInt(200, 1000));
      plan.arrivals.push_back(job);
    }
  }
  return plan;
}

std::string serialize(const Plan& plan) {
  std::ostringstream out;
  out.precision(17);
  out << "workload " << toString(plan.workload) << "\nseed " << plan.seed
      << "\njournal " << plan.journal << "\n";
  for (const ClusterSpec& c : plan.machine.clusters) {
    out << "cluster " << c.id.value << " " << c.nodes << "\n";
  }
  out << "speedup " << plan.amrSpeedup.a << " " << plan.amrSpeedup.b << " "
      << plan.amrSpeedup.c << " " << plan.amrSpeedup.d << "\n";
  for (const PsaPlan& p : plan.psas) {
    out << "psa " << p.cluster.value << " " << p.maxNodes << " "
        << p.taskDuration << " " << p.rngSeed << "\n";
  }
  for (const AmrPlan& a : plan.amrs) {
    out << "amr " << a.cluster.value << " " << a.preallocNodes;
    for (const double s : a.sizesMiB) out << " " << s;
    out << "\n";
  }
  for (const Arrival& j : plan.arrivals) {
    out << "job " << j.atSeconds << " " << j.cluster.value << " " << j.nodes
        << " " << j.duration << "\n";
  }
  return out.str();
}

}  // namespace e2e
