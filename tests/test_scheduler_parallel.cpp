// Differential property suite: the scheduler against a reference.
//
// `Scheduler::schedule` must be *bit-identical* to a reference built from
// binary view algebra (reference_scheduler.hpp): every request attribute
// and every view entry, compared with operator== (not just semantic
// sameAs). The suite pins that on randomized multi-cluster populations
// (cluster counts 1–8, varying app counts, NEXT/COALLOC chains, started
// and pending requests), in filling and in strict equi-partitioning mode.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "coorm/common/rng.hpp"
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

void schedule(Population& p) {
  Scheduler scheduler(p.machine, Scheduler::Config{p.strict});
  scheduler.schedule(p.apps, p.now);
}

void expectMatchesReference(std::uint64_t seed, bool forceStrict) {
  Population reference = makePopulation(seed);
  Population scheduled = makePopulation(seed);
  if (forceStrict) {
    reference.strict = true;
    scheduled.strict = true;
  }
  referenceSchedule(reference.machine, reference.apps, reference.now,
                    reference.strict);
  schedule(scheduled);
  expectIdentical(reference, scheduled,
                  "seed=" + std::to_string(seed) +
                      (forceStrict ? " strict" : ""));
}

TEST(SchedulerReference, ScheduleMatchesPreRefactorSerialReference) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    expectMatchesReference(seed, /*forceStrict=*/false);
  }
  // Strict equi-partitioning on every population of a second seed range.
  for (std::uint64_t seed = 100; seed <= 120; ++seed) {
    expectMatchesReference(seed, /*forceStrict=*/true);
  }
}

TEST(SchedulerReference, EmptyAppListIsANoop) {
  std::vector<AppSchedule> apps;
  Scheduler::eqSchedule(apps, View{}, 0, false);
  Scheduler scheduler(Machine::single(16));
  scheduler.schedule(apps, 0);
}

}  // namespace
}  // namespace coorm
