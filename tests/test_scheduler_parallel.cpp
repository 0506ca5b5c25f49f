// Differential property suite for the parallel scheduler (ISSUE 3).
//
// The worker-pool refactor promises that `schedule`/`eqSchedule` output is
// *bit-identical* across thread counts: every request attribute and every
// view entry, compared with operator== (not just semantic sameAs). The
// suite pins that on randomized multi-cluster populations (cluster counts
// 1–8, varying app counts, NEXT/COALLOC chains, started and pending
// requests), and additionally checks the refactored serial path against a
// pre-refactor reference built from binary view algebra.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "coorm/common/rng.hpp"
#include "coorm/common/worker_pool.hpp"
#include "coorm/rms/scheduler.hpp"
#include "reference_scheduler.hpp"

namespace coorm {
namespace {

using testing_reference::referenceSchedule;

struct Population {
  Machine machine;
  std::vector<std::unique_ptr<Request>> owned;
  std::vector<std::unique_ptr<RequestSet>> sets;
  std::vector<AppSchedule> apps;
  bool strict = false;
  Time now = 0;
};

/// Deterministic randomized population: same seed, same population —
/// that is what makes the differential comparison meaningful.
Population makePopulation(std::uint64_t seed) {
  Rng rng(seed);
  Population p;
  const int nclusters = static_cast<int>(rng.uniformInt(1, 8));
  const int napps = static_cast<int>(rng.uniformInt(1, 10));
  for (int c = 0; c < nclusters; ++c) {
    p.machine.clusters.push_back(
        {ClusterId{c}, rng.uniformInt(8, 64)});
  }

  std::int64_t nextId = 1;
  const auto add = [&](RequestSet* set, ClusterId cid, NodeCount nodes,
                       Time duration, RequestType type, Relation how,
                       Request* parent) -> Request* {
    auto r = std::make_unique<Request>();
    r->id = RequestId{nextId++};
    r->cluster = cid;
    r->nodes = nodes;
    r->duration = duration;
    r->type = type;
    r->relatedHow = how;
    r->relatedTo = parent;
    set->add(r.get());
    p.owned.push_back(std::move(r));
    return p.owned.back().get();
  };

  for (int a = 0; a < napps; ++a) {
    p.sets.push_back(std::make_unique<RequestSet>());
    RequestSet* pa = p.sets.back().get();
    p.sets.push_back(std::make_unique<RequestSet>());
    RequestSet* np = p.sets.back().get();
    p.sets.push_back(std::make_unique<RequestSet>());
    RequestSet* pre = p.sets.back().get();

    const ClusterId home{static_cast<std::int32_t>(
        rng.uniformInt(0, nclusters - 1))};

    Request* prealloc = nullptr;
    if (rng.uniformInt(0, 2) != 0) {
      prealloc = add(pa, home, rng.uniformInt(2, 16),
                     sec(rng.uniformInt(600, 7200)),
                     RequestType::kPreAllocation, Relation::kFree, nullptr);
      if (rng.uniformInt(0, 3) == 0) {
        prealloc->startedAt = sec(rng.uniformInt(0, 30));
      }
    }

    // NP chain inside (or independent of) the pre-allocation, mixing NEXT
    // and COALLOC constraints.
    Request* inner = nullptr;
    const int chain = static_cast<int>(rng.uniformInt(0, 4));
    for (int k = 0; k < chain; ++k) {
      Relation how = Relation::kFree;
      Request* parent = nullptr;
      if (k == 0 && prealloc != nullptr) {
        how = Relation::kCoAlloc;
        parent = prealloc;
      } else if (inner != nullptr) {
        how = rng.uniformInt(0, 1) == 0 ? Relation::kNext : Relation::kCoAlloc;
        parent = inner;
      }
      inner = add(np, home, rng.uniformInt(1, 8),
                  sec(rng.uniformInt(300, 3600)),
                  RequestType::kNonPreemptible, how, parent);
    }

    // Preemptible requests: FREE or chained, some already started and
    // holding node IDs. Occasionally one sits on a cluster the machine
    // does not manage (a drained cluster): its occupation has no matching
    // availability profile, the edge the per-cluster sweep must keep
    // handling.
    Request* prevPre = nullptr;
    const int npre = static_cast<int>(rng.uniformInt(0, 3));
    for (int k = 0; k < npre; ++k) {
      ClusterId cid = home;
      if (rng.uniformInt(0, 5) == 0) {
        cid = ClusterId{static_cast<std::int32_t>(
            rng.uniformInt(0, nclusters - 1))};
      }
      const bool drained = rng.uniformInt(0, 9) == 0;
      if (drained) cid = ClusterId{nclusters};
      Request* r = add(pre, cid, rng.uniformInt(1, 12),
                       rng.uniformInt(0, 3) == 0
                           ? kTimeInf
                           : sec(rng.uniformInt(60, 1200)),
                       RequestType::kPreemptible, Relation::kFree, nullptr);
      if (prevPre != nullptr && rng.uniformInt(0, 2) == 0) {
        r->relatedHow =
            rng.uniformInt(0, 1) == 0 ? Relation::kNext : Relation::kCoAlloc;
        r->relatedTo = prevPre;
      } else if (rng.uniformInt(0, 1) == 0) {
        r->startedAt = sec(rng.uniformInt(0, 50));
        const NodeCount held = rng.uniformInt(1, r->nodes);
        for (NodeCount n = 0; n < held; ++n) {
          r->nodeIds.push_back(NodeId{
              r->cluster, static_cast<std::int32_t>(a * 100 + n)});
        }
      }
      prevPre = r;
    }

    AppSchedule app;
    app.app = AppId{a};
    app.preAllocations = pa;
    app.nonPreemptible = np;
    app.preemptible = pre;
    p.apps.push_back(std::move(app));
  }
  p.strict = rng.uniformInt(0, 3) == 0;
  p.now = sec(rng.uniformInt(0, 100));
  return p;
}

/// Bit-level comparison of two populations built from the same seed after
/// scheduling: every request attribute and the exact view representation
/// (operator==, not sameAs — entries must match cluster for cluster).
void expectIdentical(const Population& a, const Population& b,
                     const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.owned.size(), b.owned.size());
  for (std::size_t i = 0; i < a.owned.size(); ++i) {
    const Request& ra = *a.owned[i];
    const Request& rb = *b.owned[i];
    EXPECT_EQ(ra.scheduledAt, rb.scheduledAt) << "request " << i;
    EXPECT_EQ(ra.nAlloc, rb.nAlloc) << "request " << i;
    EXPECT_EQ(ra.fixed, rb.fixed) << "request " << i;
    EXPECT_EQ(ra.earliestScheduleAt, rb.earliestScheduleAt)
        << "request " << i;
  }
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].nonPreemptiveView, b.apps[i].nonPreemptiveView)
        << "app " << i << "\n"
        << a.apps[i].nonPreemptiveView.toString() << "\nvs\n"
        << b.apps[i].nonPreemptiveView.toString();
    EXPECT_EQ(a.apps[i].preemptiveView, b.apps[i].preemptiveView)
        << "app " << i << "\n"
        << a.apps[i].preemptiveView.toString() << "\nvs\n"
        << b.apps[i].preemptiveView.toString();
  }
}

void scheduleWithThreads(Population& p, int threads) {
  Scheduler scheduler(p.machine, Scheduler::Config{p.strict},
                      SchedulerOptions{threads});
  scheduler.schedule(p.apps, p.now);
}

TEST(SchedulerParallel, ScheduleBitIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Population serial = makePopulation(seed);
    scheduleWithThreads(serial, 1);
    for (const int threads : {2, 4, 8}) {
      Population parallel = makePopulation(seed);
      scheduleWithThreads(parallel, threads);
      expectIdentical(serial, parallel,
                      "seed=" + std::to_string(seed) +
                          " threads=" + std::to_string(threads));
    }
  }
}

TEST(SchedulerParallel, ScheduleMatchesPreRefactorSerialReference) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Population reference = makePopulation(seed);
    referenceSchedule(reference.machine, reference.apps, reference.now,
                      reference.strict);
    for (const int threads : {1, 4}) {
      Population refactored = makePopulation(seed);
      scheduleWithThreads(refactored, threads);
      expectIdentical(reference, refactored,
                      "seed=" + std::to_string(seed) +
                          " threads=" + std::to_string(threads));
    }
  }
}

TEST(SchedulerParallel, StrictModeBitIdenticalAcrossThreadCounts) {
  for (std::uint64_t seed = 100; seed <= 120; ++seed) {
    Population serial = makePopulation(seed);
    serial.strict = true;
    scheduleWithThreads(serial, 1);
    Population parallel = makePopulation(seed);
    parallel.strict = true;
    scheduleWithThreads(parallel, 8);
    expectIdentical(serial, parallel, "seed=" + std::to_string(seed));
  }
}

TEST(SchedulerParallel, EqScheduleBitIdenticalWithPool) {
  // Algorithm 3 in isolation, against availability with negative
  // stretches (exercising the entry clamp) and clusters nobody occupies.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 77);
    View avail;
    const int nclusters = static_cast<int>(rng.uniformInt(1, 8));
    for (int c = 0; c < nclusters; ++c) {
      StepFunction cap = StepFunction::constant(rng.uniformInt(4, 30));
      const int dips = static_cast<int>(rng.uniformInt(0, 3));
      for (int d = 0; d < dips; ++d) {
        cap -= StepFunction::pulse(
            sec(rng.uniformInt(0, 300)),
            rng.uniformInt(0, 3) == 0 ? kTimeInf
                                      : sec(rng.uniformInt(20, 200)),
            rng.uniformInt(1, 20));
      }
      avail.setCap(ClusterId{c}, std::move(cap));
    }

    Population serial = makePopulation(seed);
    Scheduler::eqSchedule(serial.apps, avail, serial.now, serial.strict,
                          ProfileContext{});
    for (const int threads : {2, 8}) {
      WorkerPool pool(threads);
      Population parallel = makePopulation(seed);
      Scheduler::eqSchedule(parallel.apps, avail, parallel.now,
                            parallel.strict, ProfileContext{.pool = &pool});
      expectIdentical(serial, parallel,
                      "seed=" + std::to_string(seed) +
                          " threads=" + std::to_string(threads));
    }
  }
}

TEST(SchedulerParallel, PoolReusedAcrossPassesStaysDeterministic) {
  // One Scheduler (one pool) driving repeated passes at advancing times
  // must track a serial scheduler pass for pass.
  const std::uint64_t seed = 9;
  Population serial = makePopulation(seed);
  Population parallel = makePopulation(seed);
  Scheduler serialScheduler(serial.machine, Scheduler::Config{serial.strict},
                            SchedulerOptions{1});
  Scheduler parallelScheduler(parallel.machine,
                              Scheduler::Config{parallel.strict},
                              SchedulerOptions{4});
  for (int pass = 0; pass < 5; ++pass) {
    const Time now = serial.now + sec(pass * 30);
    serialScheduler.schedule(serial.apps, now);
    parallelScheduler.schedule(parallel.apps, now);
    expectIdentical(serial, parallel, "pass=" + std::to_string(pass));
  }
}

TEST(SchedulerParallel, EmptyAppListIsANoopWithPool) {
  WorkerPool pool(4);
  std::vector<AppSchedule> apps;
  Scheduler::eqSchedule(apps, View{}, 0, false, ProfileContext{.pool = &pool});
  Scheduler scheduler(Machine::single(16), Scheduler::Config{},
                      SchedulerOptions{4});
  scheduler.schedule(apps, 0);  // must not touch the pool with empty batches
}

}  // namespace
}  // namespace coorm
