// Determinism suite for the server's scheduling passes.
//
// A pass runs inline on the executor thread. The suite pins that a run is
// a function of its seed: for a fixed scenario and seed, every endpoint
// callback with its payload, the final node-pool state, the pass count and
// the full protocol trace are *exactly* equal across repeat runs.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "coorm/common/rng.hpp"
#include "coorm/rms/server.hpp"
#include "coorm/sim/engine.hpp"

namespace coorm {
namespace {

const ClusterId kC0{0};
const ClusterId kC1{1};

/// A scripted application performing deterministic pseudo-random protocol
/// action bursts, recording everything the server tells it.
class ScriptApp : public AppEndpoint {
 public:
  ScriptApp(Engine& engine, std::uint64_t seed, Time disconnectAt)
      : engine_(engine), rng_(seed), disconnectAt_(disconnectAt) {}

  void attach(Server& server) {
    session_ = server.connect(*this);
    scheduleAction();
    scheduleEnforcement();
    if (disconnectAt_ > 0) {
      engine_.after(disconnectAt_, [this] {
        if (!done_ && !killed_) {
          log("disconnect");
          session_->disconnect();
          done_ = true;
        }
      });
    }
  }

  void onViews(const View& np, const View& p) override {
    npView_ = np;
    pView_ = p;
    log("views np=" + np.toString() + " p=" + p.toString());
    if (!killed_ && !done_) enforcePreemptibleLimit();
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
    if (session_ != nullptr && !killed_ && !done_) session_->done(id);
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

  void scheduleAction() {
    // Half-second action grid against the server's 1 s re-scheduling
    // interval: a message at X.5 s arms the pass for (X+1).0 s, and the
    // *next* actions scheduled after that arming land exactly at (X+1).0 s,
    // right behind the pass in the same-time event order.
    engine_.after(msec(500) * rng_.uniformInt(1, 8), [this] {
      if (done_ || killed_) return;
      const int burst = static_cast<int>(rng_.uniformInt(1, 3));
      for (int i = 0; i < burst; ++i) act();
      scheduleAction();
    });
  }

  void scheduleEnforcement() {
    engine_.after(sec(2), [this] {
      if (done_ || killed_) return;
      enforcePreemptibleLimit();
      scheduleEnforcement();
    });
  }

  void enforcePreemptibleLimit() {
    for (const ClusterId cid : {kC0, kC1}) {
      const NodeCount allowed = pView_.at(cid, engine_.now());
      NodeCount heldP = 0;
      for (const auto& [id, ids] : held_) {
        if (typeOf_[id] != RequestType::kPreemptible) continue;
        heldP += std::count_if(
            ids.begin(), ids.end(),
            [&](const NodeId& node) { return node.cluster == cid; });
      }
      while (heldP > allowed) {
        RequestId victim{};
        for (const auto& [id, ids] : held_) {
          if (typeOf_[id] == RequestType::kPreemptible && !ids.empty() &&
              ids.front().cluster == cid) {
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
      }
    }
  }

  void act() {
    const ClusterId cid = rng_.uniformInt(0, 3) == 0 ? kC1 : kC0;
    switch (rng_.uniformInt(0, 4)) {
      case 0: {  // non-preemptible request (implicitly wrapped)
        RequestSpec spec;
        spec.cluster = cid;
        spec.nodes = rng_.uniformInt(1, 6);
        spec.duration = sec(rng_.uniformInt(10, 90));
        spec.type = RequestType::kNonPreemptible;
        remember(session_->request(spec), spec.type);
        break;
      }
      case 1: {  // preemptible request, sometimes open-ended
        RequestSpec spec;
        spec.cluster = cid;
        spec.nodes = rng_.uniformInt(1, 6);
        spec.duration =
            rng_.uniformInt(0, 1) ? kTimeInf : sec(rng_.uniformInt(20, 150));
        spec.type = RequestType::kPreemptible;
        remember(session_->request(spec), spec.type);
        break;
      }
      case 2: {  // NEXT-chained follow-up to the most recent request
        if (lastRequest_.valid()) {
          RequestSpec spec;
          spec.cluster = cid;
          spec.nodes = rng_.uniformInt(1, 4);
          spec.duration = sec(rng_.uniformInt(10, 60));
          spec.type = typeOf_[lastRequest_];
          spec.relatedHow = Relation::kNext;
          spec.relatedTo = lastRequest_;
          remember(session_->request(spec), spec.type);
        }
        break;
      }
      case 3: {  // done() something, started or not
        if (!pending_.empty()) {
          const std::size_t index = static_cast<std::size_t>(
              rng_.uniformInt(0, std::ssize(pending_) - 1));
          const RequestId id = pending_[index];
          pending_.erase(pending_.begin() + static_cast<long>(index));
          const auto it = held_.find(id);
          log("done " + toString(id));
          session_->done(id, it != held_.end() ? it->second
                                               : std::vector<NodeId>{});
        }
        break;
      }
      case 4:  // idle
        break;
    }
  }

  void remember(RequestId id, RequestType type) {
    if (!id.valid()) return;
    typeOf_[id] = type;
    pending_.push_back(id);
    lastRequest_ = id;
  }

  Engine& engine_;
  Rng rng_;
  Time disconnectAt_;
  Session* session_ = nullptr;
  View npView_, pView_;
  std::map<RequestId, std::vector<NodeId>> held_;
  std::map<RequestId, RequestType> typeOf_;
  std::vector<RequestId> pending_;
  RequestId lastRequest_{};
  std::vector<std::string> events_;
  bool killed_ = false;
  bool done_ = false;
};

struct Outcome {
  std::vector<std::vector<std::string>> appLogs;
  std::vector<std::string> trace;  ///< "t=<at> <actor>: <what>"
  NodeCount freeC0 = 0;
  NodeCount freeC1 = 0;
  std::uint64_t passes = 0;
};

Outcome runScenario(std::uint64_t seed, int napps = 5,
                    Time horizon = minutes(8)) {
  Engine engine;
  Machine machine;
  machine.clusters.push_back({kC0, 16});
  machine.clusters.push_back({kC1, 8});
  Server::Config config;
  config.reschedInterval = sec(1);
  config.violationGrace = sec(5);
  Server server(engine, machine, config);
  Trace trace;
  server.setTrace(&trace);

  Rng rng(seed);
  std::vector<std::unique_ptr<ScriptApp>> apps;
  for (int i = 0; i < napps; ++i) {
    // Some applications leave mid-run; one joins late.
    const Time disconnectAt =
        rng.uniformInt(0, 3) == 0 ? sec(rng.uniformInt(60, 400)) : 0;
    apps.push_back(std::make_unique<ScriptApp>(
        engine, rng.fork().engine()(), disconnectAt));
    if (i + 1 == napps) {
      ScriptApp* late = apps.back().get();
      engine.after(sec(30), [late, &server] { late->attach(server); });
    } else {
      apps.back()->attach(server);
    }
  }

  engine.runUntil(horizon);

  Outcome outcome;
  for (const auto& app : apps) outcome.appLogs.push_back(app->events());
  for (const Trace::Entry& entry : trace.entries()) {
    outcome.trace.push_back("t=" + std::to_string(entry.at) + " " +
                            entry.actor + ": " + entry.what);
  }
  outcome.freeC0 = server.pool().freeCount(kC0);
  outcome.freeC1 = server.pool().freeCount(kC1);
  outcome.passes = server.passCount();
  return outcome;
}

void expectSameOutput(const Outcome& a, const Outcome& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.appLogs.size(), b.appLogs.size());
  for (std::size_t i = 0; i < a.appLogs.size(); ++i) {
    EXPECT_EQ(a.appLogs[i], b.appLogs[i]) << "app " << i;
  }
  EXPECT_EQ(a.freeC0, b.freeC0);
  EXPECT_EQ(a.freeC1, b.freeC1);
  EXPECT_EQ(a.passes, b.passes);
}

TEST(ServerDeterminism, TracesIdenticalAcrossRepeats) {
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14}) {
    const Outcome reference = runScenario(seed);
    const Outcome repeat = runScenario(seed);
    EXPECT_EQ(reference.trace, repeat.trace) << "repeat seed=" << seed;
    expectSameOutput(reference, repeat, "repeat seed=" + std::to_string(seed));
  }
}

TEST(ServerDeterminism, RunSchedulingPassNowCommitsSynchronously) {
  Engine engine;
  Server server(engine, Machine::single(8));

  class Silent : public AppEndpoint {
  } endpoint;
  Session* session = server.connect(endpoint);
  RequestSpec spec;
  spec.cluster = kC0;
  spec.nodes = 4;
  spec.duration = sec(60);
  spec.type = RequestType::kNonPreemptible;
  const RequestId id = session->request(spec);

  server.runSchedulingPassNow();
  const Request* r = server.findRequest(id);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->started());  // committed: the request actually started
}

TEST(ServerDeterminism, SessionAccessorsObserveCommittedViews) {
  Engine engine;
  Server::Config config;
  config.reschedInterval = sec(1);
  Server server(engine, Machine::single(12), config);

  class Silent : public AppEndpoint {
  } endpoint;
  class Silent2 : public AppEndpoint {
  } endpoint2;
  Session* session = server.connect(endpoint);
  Session* observer = server.connect(endpoint2);
  RequestSpec spec;
  spec.cluster = kC0;
  spec.nodes = 4;
  spec.duration = sec(60);
  spec.type = RequestType::kNonPreemptible;
  session->request(spec);
  engine.runUntil(sec(2));

  // The views reflect the committed pass: the other application sees
  // 12 - 4 = 8 non-preemptible nodes while the request runs (its own view
  // adds its own pre-allocated resources back, so it must be read from a
  // second session).
  EXPECT_FALSE(session->killed());
  EXPECT_EQ(observer->nonPreemptiveView().at(kC0, engine.now()), 8);
}

}  // namespace
}  // namespace coorm
