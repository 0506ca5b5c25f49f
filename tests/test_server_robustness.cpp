// Regression tests for protocol-liveness bugs: stale constraint targets,
// walltime exhaustion, the pending-grow deadlock, and journal replays the
// machine cannot hold.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "coorm/exp/scenario.hpp"
#include "coorm/rms/journal.hpp"

namespace coorm {
namespace {

const ClusterId kC{0};

TEST(ServerRobustness, UnknownConstraintTargetIsRejectedNotFatal) {
  ScenarioConfig cfg;
  cfg.nodes = 8;
  Scenario sc(cfg);
  RigidApp& rigid = sc.addRigid({kC, 2, sec(30)});
  sc.runFor(sec(5));

  // Forge a request against a non-existent target through the session of a
  // live app: the server must reject it (invalid id), not abort.
  class Probe : public Application {
   public:
    using Application::Application;
    RequestId probe() {
      RequestSpec spec;
      spec.cluster = kC;
      spec.nodes = 1;
      spec.duration = sec(10);
      spec.type = RequestType::kNonPreemptible;
      spec.relatedHow = Relation::kNext;
      spec.relatedTo = RequestId{999999};
      return session().request(spec);
    }
  };
  Probe probe(sc.engine(), "probe");
  probe.connectTo(sc.server());
  sc.runFor(sec(2));
  EXPECT_FALSE(probe.probe().valid());
  sc.runFor(sec(60));
  EXPECT_TRUE(rigid.finished());  // the rest of the system is unaffected
}

TEST(ServerRobustness, AmrAbortsCleanlyWhenWalltimeExpires) {
  ScenarioConfig cfg;
  cfg.nodes = 64;
  Scenario sc(cfg);
  AmrApp::Config amrCfg;
  amrCfg.cluster = kC;
  // A working set that needs far longer than the walltime permits.
  amrCfg.sizesMiB = std::vector<double>(500, 50000.0);
  amrCfg.preallocNodes = 8;
  amrCfg.walltime = minutes(10);
  AmrApp& amr = sc.addAmr(amrCfg);
  sc.runUntilFinished(amr, hours(10));
  EXPECT_FALSE(amr.finished());
  EXPECT_TRUE(amr.aborted());
  EXPECT_GT(amr.stepsCompleted(), 0u);
  sc.runFor(sec(30));
  // Everything was released on abort.
  EXPECT_EQ(sc.server().pool().freeCount(kC), 64);
}

TEST(ServerRobustness, PendingGrowDoesNotDeadlockGuaranteedUpdates) {
  // Regression: a PSA's pending grow request (sized from a stale view)
  // must not reserve capacity it can never get and starve an AMR's
  // guaranteed update. With coarse re-scheduling (5 s) this used to
  // deadlock the whole simulation.
  ScenarioConfig cfg;
  cfg.nodes = 64;
  cfg.server.reschedInterval = sec(5);
  cfg.server.violationGrace = sec(20);
  Scenario sc(cfg);

  AmrApp::Config amrCfg;
  amrCfg.cluster = kC;
  for (int i = 0; i < 40; ++i) {
    amrCfg.sizesMiB.push_back(1500.0 * (i + 1));
  }
  amrCfg.preallocNodes = 48;
  amrCfg.walltime = hours(12);
  AmrApp& amr = sc.addAmr(amrCfg);

  PsaApp::Config psaCfg;
  psaCfg.cluster = kC;
  psaCfg.taskDuration = sec(120);
  sc.addPsa(psaCfg);

  sc.runUntilFinished(amr, hours(24));
  EXPECT_TRUE(amr.finished());
  EXPECT_EQ(amr.stepsCompleted(), 40u);
}

TEST(ServerRobustness, DoneOnForeignRequestIsIgnored) {
  ScenarioConfig cfg;
  cfg.nodes = 8;
  Scenario sc(cfg);
  RigidApp& victim = sc.addRigid({kC, 4, sec(120)}, "victim");
  sc.runFor(sec(5));

  class Meddler : public Application {
   public:
    using Application::Application;
    void tryDone(RequestId id) { session().done(id); }
  };
  Meddler meddler(sc.engine(), "meddler");
  meddler.connectTo(sc.server());
  sc.runFor(sec(2));
  // The victim's NP request has id 0 (first request in the system); a
  // foreign done() must be ignored.
  meddler.tryDone(RequestId{0});
  sc.runFor(sec(30));
  EXPECT_FALSE(victim.finished());  // still running, untouched
  sc.runFor(sec(120));
  EXPECT_TRUE(victim.finished());
}

using Records = std::vector<std::vector<std::uint8_t>>;

/// The journal of a live 16-node server on which one session holds all 16
/// nodes through a started non-preemptible request.
Records fullMachineJournal(const std::string& name) {
  const std::string path =
      testing::TempDir() + "coorm_robustness_" + name + ".journal";
  std::remove(path.c_str());
  {
    rms::Journal journal(path, 0);  // outlives every Server write
    Engine engine;
    Server server(engine, Machine::single(16));
    server.attachJournal(&journal);
    AppEndpoint endpoint;
    Session* session = server.connect(endpoint, "holder");
    RequestSpec spec;
    spec.cluster = kC;
    spec.nodes = 16;
    spec.duration = sec(600);
    spec.type = RequestType::kNonPreemptible;
    EXPECT_TRUE(session->request(spec).valid());
    engine.runUntil(sec(5));
    EXPECT_EQ(server.pool().freeCount(kC), 0);
    journal.sync();
  }
  const rms::ScanResult scan = rms::Journal::scan(path);
  EXPECT_FALSE(scan.refused) << scan.diagnostic;
  return scan.records;
}

/// The accepted-request record of the holder's 16-node request.
std::vector<std::uint8_t>& requestRecord(Records& records) {
  for (auto& payload : records) {
    if (!payload.empty() &&
        payload[0] == static_cast<std::uint8_t>(rms::RecordType::kRequest)) {
      return payload;
    }
  }
  ADD_FAILURE() << "no request record";
  return records.front();
}

/// Replays `records` into a fresh server on `machine`; returns the
/// diagnostic, empty when the replay was accepted.
std::string replayInto(const Machine& machine, const Records& records) {
  Engine engine;
  Server server(engine, machine);
  Time last = kNever;
  std::string error;
  const bool ok = server.restoreFromJournal(records, &last, &error);
  EXPECT_EQ(ok, error.empty()) << error;
  return ok ? std::string{} : error;
}

TEST(ServerRobustness, JournalReplayAcceptsItsOwnMachine) {
  EXPECT_EQ(replayInto(Machine::single(16), fullMachineJournal("own")), "");
}

TEST(ServerRobustness, JournalFromLargerMachineIsRefusedNotFatal) {
  // A journal written under --nodes 16 restored under --nodes 8: node 12
  // does not exist here.
  const std::string error =
      replayInto(Machine::single(8), fullMachineJournal("larger"));
  EXPECT_NE(error.find("is not on this machine"), std::string::npos) << error;
}

TEST(ServerRobustness, JournalRequestWithBadTypeByteIsRefusedNotFatal) {
  Records records = fullMachineJournal("badtype");
  std::vector<std::uint8_t>& request = requestRecord(records);
  // Tail layout: ... type u8, relation u8, relatedTo i64.
  request[request.size() - 10] = 7;
  const std::string error = replayInto(Machine::single(16), records);
  EXPECT_NE(error.find("malformed request record"), std::string::npos)
      << error;
}

TEST(ServerRobustness, JournalRequestOnUnknownClusterIsRefusedNotFatal) {
  Records records = fullMachineJournal("badcluster");
  std::vector<std::uint8_t>& request = requestRecord(records);
  // Tail layout: ... cluster i32, nodes i64, duration i64, type u8,
  // relation u8, relatedTo i64.
  for (std::size_t i = request.size() - 30; i < request.size() - 26; ++i) {
    request[i] = 0x05;
  }
  const std::string error = replayInto(Machine::single(16), records);
  EXPECT_NE(error.find("on unknown"), std::string::npos) << error;
}

}  // namespace
}  // namespace coorm
