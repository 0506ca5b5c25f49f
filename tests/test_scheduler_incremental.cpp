// Differential suite for the scheduling pass's pass-to-pass cache.
//
// schedulePass promises *bit-identical* output whatever its cache state —
// every request attribute and the exact view representation (operator==,
// not sameAs) — over any churn rate:
//  - epoch-clean all-started applications are served from the pass-to-pass
//    cache (their snapshot reports viewsReused and the previous views stay
//    exact);
//  - eqSchedule Step 2 re-sweeps only the breakpoint ranges whose inputs
//    changed and splices the clean ranges from the cached output;
//  - a cold cache (first pass, population change, cluster-union change,
//    abandoned pass) re-derives everything, never something wrong.
// The oracle is test-only: reference_scheduler.hpp rebuilds Algorithm 4
// from the public building blocks and never calls schedulePass. The suite
// pins the pass against it on randomized churn grids (population sizes ×
// churn rates {0,1,10,100}% × four seeds each) driven through the real
// snapshot/epoch machinery, and closes with a long-horizon server fuzz: a
// server with a warm cache must trace-match a server whose cache is
// dropped before every event, so that each of its passes runs cold.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "coorm/common/metrics.hpp"
#include "coorm/common/rng.hpp"
#include "coorm/rms/scheduler.hpp"
#include "coorm/rms/server.hpp"
#include "coorm/sim/engine.hpp"
#include "reference_scheduler.hpp"

namespace coorm {
namespace {

// ---------------------------------------------------------------------------
// Scheduler-level churn grid
// ---------------------------------------------------------------------------

struct Population {
  Machine machine;
  std::vector<std::unique_ptr<Request>> owned;
  std::vector<std::unique_ptr<RequestSet>> sets;
  std::vector<AppSchedule> apps;
  bool strict = false;
  std::int64_t nextId = 1;
  int nclusters = 1;
};

/// Deterministic randomized population. A slice of the applications is
/// "stable": every request started and holding node IDs — the steady-state
/// leases a warm pass serves from its cache. The rest mixes
/// pending and started requests across all three sets.
/// `stablePct` of the applications (probabilistically) are all-started
/// lease holders; 100 gives a pure steady-state population whose passes
/// are renewals end to end (a pending request anywhere re-anchors at the
/// pass's `now` and legitimately ripples every view).
Population makePopulation(std::uint64_t seed, int napps, int stablePct = 60) {
  Rng rng(seed);
  Population p;
  p.nclusters = static_cast<int>(rng.uniformInt(1, 6));
  for (int c = 0; c < p.nclusters; ++c) {
    p.machine.clusters.push_back({ClusterId{c}, rng.uniformInt(16, 96)});
  }

  const auto add = [&](RequestSet* set, ClusterId cid, NodeCount nodes,
                       Time duration, RequestType type) -> Request* {
    auto r = std::make_unique<Request>();
    r->id = RequestId{p.nextId++};
    r->cluster = cid;
    r->nodes = nodes;
    r->duration = duration;
    r->type = type;
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

    const ClusterId home{
        static_cast<std::int32_t>(rng.uniformInt(0, p.nclusters - 1))};
    const bool stable = rng.uniformInt(0, 99) < stablePct;

    if (stable) {
      // All-started preemptible leases: the app the steady state renews.
      const int leases = static_cast<int>(rng.uniformInt(1, 3));
      for (int k = 0; k < leases; ++k) {
        Request* r =
            add(pre, home, rng.uniformInt(1, 10),
                rng.uniformInt(0, 2) == 0 ? kTimeInf
                                          : sec(rng.uniformInt(600, 7200)),
                RequestType::kPreemptible);
        r->startedAt = sec(rng.uniformInt(0, 20));
        const NodeCount held = rng.uniformInt(1, r->nodes);
        for (NodeCount n = 0; n < held; ++n) {
          r->nodeIds.push_back(
              NodeId{r->cluster, static_cast<std::int32_t>(a * 64 + n)});
        }
      }
    } else {
      if (rng.uniformInt(0, 1) == 0) {
        Request* prealloc =
            add(pa, home, rng.uniformInt(2, 16),
                sec(rng.uniformInt(600, 7200)), RequestType::kPreAllocation);
        if (rng.uniformInt(0, 2) == 0) {
          prealloc->startedAt = sec(rng.uniformInt(0, 30));
        }
        add(np, home, rng.uniformInt(1, 6), sec(rng.uniformInt(300, 3600)),
            RequestType::kNonPreemptible);
      }
      const int npre = static_cast<int>(rng.uniformInt(0, 3));
      for (int k = 0; k < npre; ++k) {
        // A drained cluster the machine does not manage keeps the sweep's
        // no-availability edge in the mix.
        const ClusterId cid =
            rng.uniformInt(0, 9) == 0 ? ClusterId{p.nclusters} : home;
        Request* r =
            add(pre, cid, rng.uniformInt(1, 12),
                rng.uniformInt(0, 3) == 0 ? kTimeInf
                                          : sec(rng.uniformInt(60, 1200)),
                RequestType::kPreemptible);
        if (rng.uniformInt(0, 1) == 0) {
          r->startedAt = sec(rng.uniformInt(0, 50));
          const NodeCount held = rng.uniformInt(1, r->nodes);
          for (NodeCount n = 0; n < held; ++n) {
            r->nodeIds.push_back(
                NodeId{r->cluster, static_cast<std::int32_t>(a * 64 + n)});
          }
        }
      }
    }

    AppSchedule app;
    app.app = AppId{a};
    app.preAllocations = pa;
    app.nonPreemptible = np;
    app.preemptible = pre;
    app.epoch = 1;
    p.apps.push_back(std::move(app));
  }
  p.strict = rng.uniformInt(0, 4) == 0;
  return p;
}

/// Applies one pass's churn: each application mutates with probability
/// `churnPct`/100, bumping its epoch. Driven by a per-pass seed so twin
/// populations (structurally identical) receive identical mutations.
void churn(Population& p, std::uint64_t passSeed, int churnPct, Time now) {
  Rng rng(passSeed);
  for (std::size_t a = 0; a < p.apps.size(); ++a) {
    if (rng.uniformInt(0, 99) >= churnPct) continue;
    AppSchedule& app = p.apps[a];
    RequestSet& pre = *app.preemptible;
    switch (rng.uniformInt(0, 3)) {
      case 0: {  // lease extension/shrink: move a request's duration
        if (pre.size() > 0) {
          Request* r = *(pre.begin() + rng.uniformInt(0, pre.size() - 1));
          r->duration = rng.uniformInt(0, 4) == 0
                            ? kTimeInf
                            : sec(rng.uniformInt(120, 9000));
        }
        break;
      }
      case 1: {  // new pending preemptible request (membership change)
        auto r = std::make_unique<Request>();
        r->id = RequestId{p.nextId++};
        r->cluster = ClusterId{
            static_cast<std::int32_t>(rng.uniformInt(0, p.nclusters - 1))};
        r->nodes = rng.uniformInt(1, 8);
        r->duration = sec(rng.uniformInt(60, 2400));
        r->type = RequestType::kPreemptible;
        pre.add(r.get());
        p.owned.push_back(std::move(r));
        break;
      }
      case 2: {  // start a pending preemptible request
        for (Request* r : pre) {
          if (r->started()) continue;
          r->startedAt = now;
          const NodeCount held = rng.uniformInt(1, r->nodes);
          for (NodeCount n = 0; n < held; ++n) {
            r->nodeIds.push_back(NodeId{
                r->cluster, static_cast<std::int32_t>(a * 64 + 32 + n)});
          }
          break;
        }
        break;
      }
      case 3: {  // resize a pending request
        for (Request* r : pre) {
          if (r->started()) continue;
          r->nodes = rng.uniformInt(1, 12);
          break;
        }
        break;
      }
    }
    ++app.epoch;
  }
}

/// A population plus the views its last pass stashed, the way the server
/// keeps them.
struct Twin {
  explicit Twin(Population population) : pop(std::move(population)) {}
  Population pop;
  std::vector<View> stashNp, stashP;
};

/// One scheduler + snapshot driven across passes the way the server does:
/// recapture with epochs, schedulePass, writeBack, stash views (honouring
/// viewsReused exactly like Server::commitPass).
struct Runner : Twin {
  Scheduler scheduler;
  RequestSetSnapshot snapshot;

  Runner(std::uint64_t seed, int napps, int stablePct = 60)
      : Twin(makePopulation(seed, napps, stablePct)),
        scheduler(pop.machine, Scheduler::Config{pop.strict}) {}

  void pass(Time now) {
    snapshot.recapture(pop.apps);
    scheduler.schedulePass(snapshot, now);
    snapshot.writeBack();
    const std::span<AppSnapshot> apps = snapshot.apps();
    stashNp.resize(apps.size());
    stashP.resize(apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i) {
      if (apps[i].viewsReused) continue;  // renewed lease: stash still exact
      stashNp[i] = apps[i].nonPreemptiveView;
      stashP[i] = apps[i].preemptiveView;
    }
  }
};

/// The oracle twin: every pass is the test-only reference, straight on the
/// live request sets.
struct Reference : Twin {
  Reference(std::uint64_t seed, int napps)
      : Twin(makePopulation(seed, napps)) {}

  void pass(Time now) {
    testing_reference::referenceSchedule(pop.machine, pop.apps, now,
                                         pop.strict);
    stashNp.resize(pop.apps.size());
    stashP.resize(pop.apps.size());
    for (std::size_t i = 0; i < pop.apps.size(); ++i) {
      stashNp[i] = pop.apps[i].nonPreemptiveView;
      stashP[i] = pop.apps[i].preemptiveView;
    }
  }
};

/// Bit-level comparison: every request attribute and the exact view
/// representation must match (operator==, not sameAs).
void expectIdentical(const Twin& a, const Twin& b, const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.pop.owned.size(), b.pop.owned.size());
  for (std::size_t i = 0; i < a.pop.owned.size(); ++i) {
    const Request& ra = *a.pop.owned[i];
    const Request& rb = *b.pop.owned[i];
    ASSERT_EQ(ra.scheduledAt, rb.scheduledAt) << "request " << i;
    ASSERT_EQ(ra.nAlloc, rb.nAlloc) << "request " << i;
    ASSERT_EQ(ra.fixed, rb.fixed) << "request " << i;
    ASSERT_EQ(ra.earliestScheduleAt, rb.earliestScheduleAt) << "request " << i;
  }
  ASSERT_EQ(a.stashNp.size(), b.stashNp.size());
  for (std::size_t i = 0; i < a.stashNp.size(); ++i) {
    ASSERT_EQ(a.stashNp[i], b.stashNp[i])
        << "app " << i << " np\n"
        << a.stashNp[i].toString() << "\nvs\n"
        << b.stashNp[i].toString();
    ASSERT_EQ(a.stashP[i], b.stashP[i])
        << "app " << i << " p\n"
        << a.stashP[i].toString() << "\nvs\n"
        << b.stashP[i].toString();
  }
}

void runGrid(std::uint64_t seed, int napps, int churnPct, int passes) {
  Reference ref(seed, napps);
  Runner inc(seed, napps);
  for (int pass = 0; pass < passes; ++pass) {
    const Time now = sec(60 + pass * 30);
    churn(ref.pop, seed * 1000 + static_cast<std::uint64_t>(pass), churnPct,
          now);
    churn(inc.pop, seed * 1000 + static_cast<std::uint64_t>(pass), churnPct,
          now);
    ref.pass(now);
    inc.pass(now);
    expectIdentical(ref, inc,
                    "seed=" + std::to_string(seed) +
                        " napps=" + std::to_string(napps) +
                        " churn=" + std::to_string(churnPct) +
                        "% pass=" + std::to_string(pass));
  }
}

TEST(SchedulerIncremental, ChurnGridBitIdentical) {
  for (const int napps : {1, 3, 17, 64}) {
    for (const int churnPct : {0, 1, 10, 100}) {
      for (const int variant : {1, 2, 4, 8}) {
        runGrid(static_cast<std::uint64_t>(napps * 1000 + churnPct + variant),
                napps, churnPct, 6);
      }
    }
  }
}

TEST(SchedulerIncremental, LargePopulationLowChurn) {
  // The headline configuration, scaled for a unit test: a large population
  // in near-steady state across several passes, on two seeds.
  for (const std::uint64_t seed : {43, 50}) {
    runGrid(seed, /*napps=*/512, /*churnPct=*/1, 4);
  }
}

TEST(SchedulerIncremental, SteadyStateServesFromCacheAndReusesRanges) {
  // Pure lease population: every pass after the first is a renewal.
  Runner inc(/*seed=*/7, /*napps=*/48, /*stablePct=*/100);
  inc.pass(sec(60));  // cold pass primes the cache
  const metrics::Snapshot before = metrics::snapshot();
  inc.pass(sec(90));  // no churn: pure steady state
  const metrics::Snapshot after = metrics::snapshot();
  EXPECT_GT(after[metrics::Event::kPassAppsClean],
            before[metrics::Event::kPassAppsClean]);
  EXPECT_GT(after[metrics::Event::kStep2RangesReused],
            before[metrics::Event::kStep2RangesReused]);
  // Every stable app's views carried over without materialization.
  std::size_t reused = 0;
  for (const AppSnapshot& app : inc.snapshot.apps()) {
    if (app.viewsReused) ++reused;
  }
  EXPECT_GT(reused, 0u);
}

TEST(SchedulerIncremental, InvalidateForcesColdPassWithSameResults) {
  const std::uint64_t seed = 11;
  Reference ref(seed, 32);
  Runner inc(seed, 32);
  for (int pass = 0; pass < 5; ++pass) {
    const Time now = sec(60 + pass * 30);
    churn(ref.pop, seed * 1000 + static_cast<std::uint64_t>(pass), 10, now);
    churn(inc.pop, seed * 1000 + static_cast<std::uint64_t>(pass), 10, now);
    if (pass == 2) inc.scheduler.invalidateIncremental();  // abandoned pass
    ref.pass(now);
    inc.pass(now);
    expectIdentical(ref, inc, "pass=" + std::to_string(pass));
  }
}

TEST(SchedulerIncremental, PopulationChangeFallsBackToFullPass) {
  const std::uint64_t seed = 23;
  Reference ref(seed, 24);
  Runner inc(seed, 24);
  const auto dropApp = [](Population& p, std::size_t index) {
    p.apps.erase(p.apps.begin() + static_cast<long>(index));
  };
  for (int pass = 0; pass < 6; ++pass) {
    const Time now = sec(60 + pass * 30);
    if (pass == 2) {  // disconnect mid-steady-state
      dropApp(ref.pop, 5);
      dropApp(inc.pop, 5);
    }
    if (pass == 4) {  // late joiner: fresh app appended to both twins
      for (Population* p : {&ref.pop, &inc.pop}) {
        p->sets.push_back(std::make_unique<RequestSet>());
        RequestSet* pa = p->sets.back().get();
        p->sets.push_back(std::make_unique<RequestSet>());
        RequestSet* np = p->sets.back().get();
        p->sets.push_back(std::make_unique<RequestSet>());
        RequestSet* pre = p->sets.back().get();
        auto r = std::make_unique<Request>();
        r->id = RequestId{p->nextId++};
        r->cluster = ClusterId{0};
        r->nodes = 4;
        r->duration = sec(900);
        r->type = RequestType::kPreemptible;
        pre->add(r.get());
        p->owned.push_back(std::move(r));
        AppSchedule app;
        app.app = AppId{1000};
        app.preAllocations = pa;
        app.nonPreemptible = np;
        app.preemptible = pre;
        app.epoch = 1;
        p->apps.push_back(std::move(app));
      }
    }
    churn(ref.pop, seed * 1000 + static_cast<std::uint64_t>(pass), 5, now);
    churn(inc.pop, seed * 1000 + static_cast<std::uint64_t>(pass), 5, now);
    ref.pass(now);
    inc.pass(now);
    expectIdentical(ref, inc, "pass=" + std::to_string(pass));
  }
}

// ---------------------------------------------------------------------------
// Long-horizon server fuzz: warm cache vs a server that runs every
// pass cold. Applications acquire preemptible leases, then mostly idle —
// long steady-state stretches where the warm server renews leases —
// interleaved with bursts of new requests and releases.
// ---------------------------------------------------------------------------

const ClusterId kC0{0};
const ClusterId kC1{1};

class LeaseApp : public AppEndpoint {
 public:
  LeaseApp(Engine& engine, std::uint64_t seed) : engine_(engine), rng_(seed) {}

  void attach(Server& server) {
    session_ = server.connect(*this);
    // Initial leases, then sparse activity: long quiet stretches are the
    // steady state the warm server must renew through.
    const int leases = static_cast<int>(rng_.uniformInt(1, 3));
    for (int i = 0; i < leases; ++i) acquire();
    scheduleAction();
  }

  void onViews(const View& np, const View& p) override {
    pView_ = p;
    log("views np=" + np.toString() + " p=" + p.toString());
    enforce();
  }

  void onStarted(RequestId id, const std::vector<NodeId>& ids) override {
    held_[id] = ids;
    std::ostringstream os;
    os << "started " << toString(id) << " [";
    for (const NodeId& node : ids) os << toString(node) << ' ';
    os << ']';
    log(os.str());
  }

  void onExpired(RequestId id) override {
    log("expired " + toString(id));
    if (session_ != nullptr && !killed_) session_->done(id);
  }

  void onEnded(RequestId id) override {
    log("ended " + toString(id));
    held_.erase(id);
  }

  void onKilled() override {
    log("killed");
    killed_ = true;
  }

  [[nodiscard]] const std::vector<std::string>& events() const {
    return events_;
  }

 private:
  void log(const std::string& what) {
    events_.push_back("t=" + std::to_string(engine_.now()) + " " + what);
  }

  void acquire() {
    RequestSpec spec;
    spec.cluster = rng_.uniformInt(0, 3) == 0 ? kC1 : kC0;
    spec.nodes = rng_.uniformInt(1, 5);
    spec.duration =
        rng_.uniformInt(0, 1) ? kTimeInf : sec(rng_.uniformInt(120, 600));
    spec.type = RequestType::kPreemptible;
    const RequestId id = session_->request(spec);
    if (id.valid()) pending_.push_back(id);
  }

  void scheduleAction() {
    // 20–90 s gaps: many re-scheduling intervals pass untouched between
    // actions, so most passes see every application epoch-clean.
    engine_.after(sec(rng_.uniformInt(20, 90)), [this] {
      if (killed_) return;
      switch (rng_.uniformInt(0, 2)) {
        case 0:
          acquire();
          break;
        case 1: {
          if (!pending_.empty()) {
            const std::size_t index = static_cast<std::size_t>(
                rng_.uniformInt(0, std::ssize(pending_) - 1));
            const RequestId id = pending_[index];
            pending_.erase(pending_.begin() + static_cast<long>(index));
            const auto it = held_.find(id);
            log("done " + toString(id));
            session_->done(id, it != held_.end() ? it->second
                                                 : std::vector<NodeId>{});
            held_.erase(id);
          }
          break;
        }
        case 2:  // idle: extend the steady state
          break;
      }
      scheduleAction();
    });
  }

  void enforce() {
    for (const ClusterId cid : {kC0, kC1}) {
      const NodeCount allowed = pView_.at(cid, engine_.now());
      NodeCount heldP = 0;
      for (const auto& [id, ids] : held_) {
        heldP += std::count_if(
            ids.begin(), ids.end(),
            [&](const NodeId& node) { return node.cluster == cid; });
      }
      while (heldP > allowed) {
        RequestId victim{};
        for (const auto& [id, ids] : held_) {
          if (!ids.empty() && ids.front().cluster == cid) {
            victim = id;
            break;
          }
        }
        if (!victim.valid()) break;
        const auto ids = held_[victim];
        heldP -= std::ssize(ids);
        log("release " + toString(victim));
        session_->done(victim, ids);
        held_.erase(victim);
        std::erase(pending_, victim);
      }
    }
  }

  Engine& engine_;
  Rng rng_;
  Session* session_ = nullptr;
  View pView_;
  std::map<RequestId, std::vector<NodeId>> held_;
  std::vector<RequestId> pending_;
  std::vector<std::string> events_;
  bool killed_ = false;
};

struct ServerOutcome {
  std::vector<std::vector<std::string>> appLogs;
  std::vector<std::string> trace;
  NodeCount freeC0 = 0;
  NodeCount freeC1 = 0;
  std::uint64_t passes = 0;
  std::uint64_t leasesRenewed = 0;
};

/// `coldEveryPass` makes the reference server: its scheduler cache is
/// dropped before every dispatched event, so each pass it runs is a cold
/// full recompute.
ServerOutcome runServerScenario(std::uint64_t seed, bool coldEveryPass,
                                Time horizon = minutes(20)) {
  const metrics::Snapshot before = metrics::snapshot();
  Engine engine;
  Machine machine;
  machine.clusters.push_back({kC0, 16});
  machine.clusters.push_back({kC1, 8});
  Server::Config config;
  config.reschedInterval = sec(1);
  Server server(engine, machine, config);
  Trace trace;
  server.setTrace(&trace);

  Rng rng(seed);
  std::vector<std::unique_ptr<LeaseApp>> apps;
  for (int i = 0; i < 4; ++i) {
    apps.push_back(
        std::make_unique<LeaseApp>(engine, rng.fork().engine()()));
    apps.back()->attach(server);
  }
  if (coldEveryPass) {
    while (!engine.empty() && engine.nextEventAt() <= horizon) {
      server.scheduler().invalidateIncremental();
      engine.step();
    }
  }
  engine.runUntil(horizon);

  ServerOutcome outcome;
  for (const auto& app : apps) outcome.appLogs.push_back(app->events());
  for (const Trace::Entry& entry : trace.entries()) {
    outcome.trace.push_back("t=" + std::to_string(entry.at) + " " +
                            entry.actor + ": " + entry.what);
  }
  outcome.freeC0 = server.pool().freeCount(kC0);
  outcome.freeC1 = server.pool().freeCount(kC1);
  outcome.passes = server.passCount();
  outcome.leasesRenewed = metrics::snapshot()[metrics::Event::kLeasesRenewed] -
                          before[metrics::Event::kLeasesRenewed];
  return outcome;
}

TEST(SchedulerIncremental, ServerLongHorizonMatchesPristineServer) {
  std::uint64_t totalRenewed = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const ServerOutcome pristine =
        runServerScenario(seed, /*coldEveryPass=*/true);
    // Every reference pass really ran cold: nothing was served from cache.
    EXPECT_EQ(pristine.leasesRenewed, 0u);
    const ServerOutcome inc = runServerScenario(seed, /*coldEveryPass=*/false);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ASSERT_EQ(pristine.appLogs.size(), inc.appLogs.size());
    for (std::size_t i = 0; i < pristine.appLogs.size(); ++i) {
      EXPECT_EQ(pristine.appLogs[i], inc.appLogs[i]) << "app " << i;
    }
    EXPECT_EQ(pristine.freeC0, inc.freeC0);
    EXPECT_EQ(pristine.freeC1, inc.freeC1);
    EXPECT_EQ(pristine.passes, inc.passes);
    EXPECT_EQ(pristine.trace, inc.trace);
    totalRenewed += inc.leasesRenewed;
  }
  // The horizon must actually exercise the steady state: leases renewed.
  EXPECT_GT(totalRenewed, 0u);
}

}  // namespace
}  // namespace coorm
