// coorm_e2e: the end-to-end benchmark of the CooRMv2 RMS.
//
// One process hosts the daemon the way tools/coorm_rmsd.cpp does (Server +
// net::Daemon on a net::makeIoExecutor loop, bound to 127.0.0.1, built
// from the default RuntimeOptions) and measures it from the outside:
//  - the background population (PsaApp, AmrApp, RigidApp) attaches
//    in-process through Session, on the daemon's own loop thread;
//  - two closed-loop probe clients (one thread each) cycle REQUEST ->
//    STARTED -> DONE -> ENDED over TCP through net::RmsClient on the
//    probe-only cluster;
//  - a watcher session (sharing probe 0's thread) applies the pushed views
//    and times how long each probe allocation takes to show in them;
//  - a STATS reader (sharing probe 1's thread) snapshots the daemon's
//    counters at the window edges.
// Threads: the daemon loop, the server's background lane and the two probe
// threads; four connections. The only program inputs set here are the
// machine, the re-scheduling interval and the journal path.
//
//   coorm_e2e --workload lease-steady --seed 1 --seconds 10 --trace 0
//             --work-dir DIR --out DIR/run.json
//
// Prints the run record — every metric (end-to-end and per-layer, with
// sample counts), the failure tally and notes — as JSON, and writes it to
// --out. Exits 0 only when every correctness check passed.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "coorm/apps/amr_app.hpp"
#include "coorm/apps/psa.hpp"
#include "coorm/apps/rigid.hpp"
#include "coorm/common/metrics.hpp"
#include "coorm/common/trace.hpp"
#include "coorm/net/client.hpp"
#include "coorm/net/daemon.hpp"
#include "coorm/net/io_executor.hpp"
#include "coorm/rms/journal.hpp"
#include "coorm/rms/server.hpp"
#include "plan.hpp"
#include "report.hpp"

namespace e2e {
namespace {

using namespace coorm;
using metrics::Event;
using metrics::Histo;

// --- run shape ---------------------------------------------------------------

constexpr int kProbes = 2;
/// Probe cycles each probe runs before the measured window (part of set-up).
constexpr int kWarmupCycles = 10;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// Journal restarts after each set-up: at least the minimum, more while
/// under 0.1 s has gone on them. recovery_s is the median over all.
constexpr int kMinRestartsPerSetup = 3;
constexpr int kMaxRestartsPerSetup = 61;
/// A probe step that takes longer than this fails the cycle.
constexpr auto kStepLimit = std::chrono::seconds(5);
/// Probe requests whose view lag may be open at once, per probe.
constexpr std::size_t kMaxPendingLags = 64;
/// Period of the daemon-loop invariant check (also a timer-lateness probe).
constexpr Time kCheckPeriod = msec(10);
/// Probe requests last long enough never to expire inside a cycle.
constexpr Time kProbeDuration = sec(60);

double nowSeconds() { return static_cast<double>(metrics::nowNanos()) * 1e-9; }

double cpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Host-wide CPU ticks from /proc/stat: all of them, and those stolen by
/// the hypervisor (time a runnable vCPU did not get).
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuTicks hostTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks t;
  for (int field = 0; field < 10; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Peak resident set (VmHWM) in MiB.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    std::getline(status, key);
  }
  return 0.0;
}

/// Writes back every dirty page of the filesystem holding `dir`, so the
/// journal's fsyncs in the next measurement do not also pay for files an
/// earlier run or set-up left unwritten.
void flushFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

/// FNV-1a over every cluster id and segment of a view pair: two pushes
/// hash equal iff their raw views are equal (up to 2^-64).
std::uint64_t hashViews(const View& np, const View& p) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const View* v : {&np, &p}) {
    for (const ClusterId cid : v->clusters()) {
      mix(static_cast<std::uint64_t>(cid.value));
      for (const Segment& s : v->cap(cid).segments()) {
        mix(static_cast<std::uint64_t>(s.start));
        mix(static_cast<std::uint64_t>(s.value));
      }
    }
    mix(~0ull);
  }
  return h;
}

/// The loop coorm_rmsd builds from default options. The benchmark reads the
/// default readiness backend and sets nothing; written so it compiles
/// unchanged if that switch is ever deleted and the factory takes no
/// argument.
template <typename Defaults = RuntimeOptions>
std::unique_ptr<net::IoExecutor> defaultLoop(const Defaults& defaults = {}) {
  if constexpr (requires { net::makeIoExecutor(defaults.ioBackend); }) {
    return net::makeIoExecutor(defaults.ioBackend);
  } else {
    return [](auto... none) { return net::makeIoExecutor(none...); }();
  }
}

// --- state shared between the daemon thread and the probe threads ----------

enum class Phase : int {
  kConnect,  ///< threads dial their clients, probes warm up
  kRun,      ///< measured window(s)
  kDrain,    ///< probes finish their cycle; STATS reader snapshots
  kCheck,    ///< watcher compares its views with the in-process mirror
  kQuit,     ///< threads disconnect and exit
};

struct Shared {
  std::atomic<Phase> phase{Phase::kConnect};
  /// Measured window the probes tag their samples with.
  std::atomic<int> window{0};
  std::atomic<int> warmedUp{0};
  std::atomic<int> idle{0};
  std::atomic<int> exited{0};
  std::atomic<bool> checkDone{false};
  /// Connection order: probe 1 (and the STATS reader), then the watcher;
  /// the daemon thread then connects the mirror right behind it.
  std::atomic<bool> probe1Connected{false};
  std::atomic<bool> watcherConnected{false};
  std::uint16_t port = 0;

  std::mutex mu;
  /// STATS snapshots requested by the daemon thread and taken by probe
  /// 1's thread between cycles.
  int snapshotsWanted = 0;
  std::vector<metrics::Snapshot> snapshots;
  /// A probe request whose view lag is still open: its holding, when its
  /// REQ_ACK arrived and when the watcher first saw it (0 = not yet).
  /// Queued before the REQUEST is sent, because the view can reach the
  /// watcher before the probe's thread has processed the ack, and a probe
  /// may finish its cycle before the watcher's thread applies the view.
  struct PendingAck {
    NodeCount bits = 0;
    int window = -1;
    std::uint64_t ackNs = 0;
    std::uint64_t seenNs = 0;
  };
  /// Per probe, oldest first. A view resolves the oldest unseen entry of
  /// the size it shows: a request's allocation is in some pushed view
  /// before the probe's next request of that size exists.
  std::deque<PendingAck> pending[kProbes];
  /// Records the lag of `pending[probe][i]` once both ends are known. A
  /// view applied before the probe's thread took the ack time is a lag of
  /// 0, counted in `viewLagEarly`.
  void settle(int probe, std::size_t i) {
    const PendingAck& ack = pending[probe][i];
    if (ack.ackNs == 0 || ack.seenNs == 0) return;
    if (ack.window >= 0) {
      const bool early = ack.seenNs < ack.ackNs;
      viewLagEarly[ack.window] += early ? 1 : 0;
      viewLagMs[ack.window].push_back(
          early ? 0.0 : static_cast<double>(ack.seenNs - ack.ackNs) * 1e-6);
    }
    pending[probe].erase(pending[probe].begin() +
                         static_cast<std::ptrdiff_t>(i));
  }
  /// View-lag samples (ms) per window.
  std::map<int, std::vector<double>> viewLagMs;
  std::map<int, std::uint64_t> viewLagEarly;
  std::uint64_t viewLagMissed = 0;
  /// Mirror (in-process idle session) view hashes, in push order.
  std::vector<std::uint64_t> mirrorHashes;
  /// Node ids of the probe cluster currently held by some probe.
  std::set<std::int32_t> probeNodes;
  OpTally checks;
};

// --- probes ----------------------------------------------------------------

struct CycleSample {
  int rep = 0;  ///< set-up the cycle ran in
  int window = 0;
  double rttUs = 0;
  double startWaitMs = 0;
  double endSeconds = 0;
};

struct ProbeEndpoint final : AppEndpoint {
  RequestId awaited{};
  bool started = false;
  bool ended = false;
  bool killed = false;
  std::uint64_t startedNs = 0;
  std::vector<NodeId> nodes;
  void onStarted(RequestId id, const std::vector<NodeId>& ids) override {
    if (id != awaited) return;
    started = true;
    startedNs = metrics::nowNanos();
    nodes = ids;
  }
  void onEnded(RequestId id) override {
    if (id == awaited) ended = true;
  }
  void onKilled() override { killed = true; }
  /// Fresh per-cycle state (the endpoint itself stays registered).
  void reset() {
    awaited = RequestId{};
    started = false;
    ended = false;
    nodes.clear();
  }
};

/// The watcher: an idle session that applies every pushed view, hashes it
/// for the end-of-run identity check and resolves pending view lags.
struct WatchEndpoint final : AppEndpoint {
  Shared* shared = nullptr;
  NodeCount probeCapacity = 0;
  bool killed = false;
  std::vector<std::uint64_t> hashes;
  void onViews(const View& np, const View& p) override {
    const std::uint64_t now = metrics::nowNanos();
    hashes.push_back(hashViews(np, p));
    std::vector<NodeCount> depths;
    for (const Segment& s : np.cap(kProbeCluster).segments()) {
      depths.push_back(probeCapacity - s.value);
    }
    std::lock_guard lock(shared->mu);
    for (int probe = 0; probe < kProbes; ++probe) {
      auto& queue = shared->pending[probe];
      for (std::size_t i = 0; i < queue.size(); ++i) {
        Shared::PendingAck& ack = queue[i];
        const bool shows = std::any_of(
            depths.begin(), depths.end(), [&](NodeCount d) {
              return d >= 0 && (d & kProbeMask[probe]) == ack.bits;
            });
        if (ack.seenNs != 0 || !shows) continue;
        ack.seenNs = now;
        shared->settle(probe, i);
        break;
      }
    }
  }
  void onKilled() override { killed = true; }
};

struct ProbeResult {
  std::vector<CycleSample> samples;
  OpTally tally;  ///< measured-window cycles only
  std::size_t viewsCompared = 0;  ///< watcher pushes checked (probe 0)
};

/// Runs on its own thread: probe `index` (plus the watcher on probe 0's
/// thread and the STATS reader on probe 1's).
class ProbeThread {
 public:
  ProbeThread(int index, Shared& shared, NodeCount probeCapacity)
      : index_(index), shared_(shared), probeCapacity_(probeCapacity) {}

  void run() {
    try {
      body();
    } catch (const std::exception& error) {
      std::lock_guard lock(shared_.mu);
      shared_.checks.failed(std::string("probe thread: ") + error.what());
    }
    // Never leave another thread waiting on one that died.
    shared_.probe1Connected = true;
    shared_.watcherConnected = true;
    if (!warmed_) shared_.warmedUp.fetch_add(1);
    if (!idled_) shared_.idle.fetch_add(1);
    if (index_ == 0 && !shared_.checkDone.load()) shared_.checkDone = true;
    shared_.exited.fetch_add(1);
  }

  ProbeResult result;

 private:
  void body() {
    loop_ = defaultLoop();
    const net::Endpoint server{"127.0.0.1", shared_.port};
    net::RmsClient::Config config{server, "probe" + std::to_string(index_)};
    config.rpcTimeout = sec(5);
    probe_ = std::make_unique<net::RmsClient>(*loop_, config);
    probe_->connect(endpoint_);
    if (index_ == 0) {
      while (!shared_.probe1Connected) loop_->runOne(msec(1));
      watch_.shared = &shared_;
      watch_.probeCapacity = probeCapacity_;
      watcher_ = std::make_unique<net::RmsClient>(
          *loop_, net::RmsClient::Config{server, "watcher"});
      watcher_->connect(watch_);
      shared_.watcherConnected = true;
    } else {
      stats_ = std::make_unique<net::RmsClient>(
          *loop_, net::RmsClient::Config{server, "stats"});
      stats_->dial();
      shared_.probe1Connected = true;
    }

    for (int i = 0; i < kWarmupCycles; ++i) {
      if (!cycle(-1)) break;
    }
    warmed_ = true;
    shared_.warmedUp.fetch_add(1);

    Phase phase = Phase::kConnect;
    while ((phase = shared_.phase.load()) != Phase::kQuit) {
      serveStats();
      if (phase == Phase::kRun) {
        cycle(shared_.window.load());
        continue;
      }
      if (phase == Phase::kDrain && !idled_) {
        idled_ = true;
        shared_.idle.fetch_add(1);
      }
      if (phase == Phase::kCheck && index_ == 0 && !shared_.checkDone) {
        compareViews();
        shared_.checkDone = true;
      }
      loop_->runOne(msec(1));
    }
    probe_->disconnect();
    if (watcher_) watcher_->disconnect();
    if (stats_) stats_->disconnect();
    loop_->runOne(0);
  }

  /// Takes the STATS snapshots the daemon thread asked for (probe 1).
  void serveStats() {
    if (!stats_) return;
    for (;;) {
      {
        std::lock_guard lock(shared_.mu);
        if (std::ssize(shared_.snapshots) >= shared_.snapshotsWanted) return;
      }
      std::optional<metrics::Snapshot> snap;
      {
        trace::Span span("bench.stats_read");
        snap = stats_->stats();
      }
      std::lock_guard lock(shared_.mu);
      if (!snap) {
        shared_.checks.failed("STATS read failed");
        shared_.snapshots.emplace_back();
      } else {
        shared_.snapshots.push_back(*snap);
      }
    }
  }

  template <typename Pred>
  bool waitFor(Pred pred) {
    const auto deadline = std::chrono::steady_clock::now() + kStepLimit;
    while (!pred()) {
      if (endpoint_.killed || probe_->dead()) return false;
      if (std::chrono::steady_clock::now() > deadline) return false;
      loop_->runOne(msec(1));
    }
    return true;
  }

  void fail(int window, const std::string& reason) {
    if (window >= 0) result.tally.failed(reason);
    std::lock_guard lock(shared_.mu);
    if (!shared_.pending[index_].empty()) shared_.pending[index_].pop_back();
    if (window < 0) shared_.checks.failed("warm-up: " + reason);
    broken_ = true;
  }

  /// One closed-loop cycle; window -1 is warm-up. False once the probe is
  /// unusable.
  bool cycle(int window) {
    if (broken_) {
      loop_->runOne(msec(1));
      return false;
    }
    const NodeCount nodes = kProbeSizes[index_][cycles_ % 2];
    ++cycles_;
    RequestSpec spec;
    spec.cluster = kProbeCluster;
    spec.nodes = nodes;
    spec.duration = kProbeDuration;
    spec.type = RequestType::kNonPreemptible;
    endpoint_.reset();
    {
      std::lock_guard lock(shared_.mu);
      auto& queue = shared_.pending[index_];
      if (queue.size() == kMaxPendingLags) {
        if (queue.front().window >= 0) ++shared_.viewLagMissed;
        queue.pop_front();
      }
      queue.push_back({nodes, window, 0, 0});
    }

    const std::uint64_t sendNs = metrics::nowNanos();
    RequestId id{};
    try {
      trace::Span span("bench.client_request");
      id = probe_->request(spec);
    } catch (const net::TimeoutError&) {
      fail(window, "request not acked (timeout)");
      return false;
    }
    const std::uint64_t ackNs = metrics::nowNanos();
    if (!id.valid()) {
      fail(window, "request not acked");
      return false;
    }
    endpoint_.awaited = id;
    {
      std::lock_guard lock(shared_.mu);
      auto& queue = shared_.pending[index_];
      queue.back().ackNs = ackNs;
      shared_.settle(index_, queue.size() - 1);
    }
    if (!waitFor([&] { return endpoint_.started; })) {
      fail(window, endpoint_.killed ? "probe killed" : "not started in time");
      return false;
    }
    const double startWaitMs =
        static_cast<double>(endpoint_.startedNs - sendNs) * 1e-6;
    checkGrant(nodes);
    // Released before DONE is sent: the daemon can re-grant the nodes
    // to the other probe as soon as it has processed the DONE.
    releaseGrant();
    {
      trace::Span span("bench.client_done");
      probe_->done(id);
    }
    if (!waitFor([&] { return endpoint_.ended; })) {
      fail(window, endpoint_.killed ? "probe killed" : "not ended in time");
      return false;
    }
    if (window >= 0) {
      result.tally.succeeded();
      CycleSample sample;
      sample.window = window;
      sample.rttUs = static_cast<double>(ackNs - sendNs) * 1e-3;
      sample.startWaitMs = startWaitMs;
      sample.endSeconds = nowSeconds();
      result.samples.push_back(sample);
    }
    return true;
  }

  /// Every started probe holds exactly its requested count of distinct
  /// probe-cluster nodes that no other probe holds.
  void checkGrant(NodeCount nodes) {
    std::lock_guard lock(shared_.mu);
    std::set<std::int32_t> mine;
    bool ok = std::ssize(endpoint_.nodes) == nodes;
    for (const NodeId& n : endpoint_.nodes) {
      ok = ok && n.cluster == kProbeCluster && mine.insert(n.index).second &&
           shared_.probeNodes.count(n.index) == 0;
    }
    if (!ok) shared_.checks.failed("probe grant has wrong or shared nodes");
    shared_.probeNodes.insert(mine.begin(), mine.end());
    held_ = std::move(mine);
  }

  void releaseGrant() {
    std::lock_guard lock(shared_.mu);
    for (const std::int32_t n : held_) shared_.probeNodes.erase(n);
    held_.clear();
  }

  /// End-of-run view identity: wait until the watcher's latest push equals
  /// the mirror's, then require the two push sequences to agree on their
  /// common tail.
  void compareViews() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool matched = false;
    while (std::chrono::steady_clock::now() < deadline) {
      loop_->runOne(msec(1));
      std::lock_guard lock(shared_.mu);
      if (!watch_.hashes.empty() && !shared_.mirrorHashes.empty() &&
          watch_.hashes.back() == shared_.mirrorHashes.back()) {
        const std::size_t common =
            std::min(watch_.hashes.size(), shared_.mirrorHashes.size()) - 1;
        matched = std::equal(watch_.hashes.end() - common, watch_.hashes.end(),
                             shared_.mirrorHashes.end() - common);
        if (!matched) break;
        result.viewsCompared = common + 1;
        break;
      }
    }
    std::lock_guard lock(shared_.mu);
    if (!matched) {
      shared_.checks.failed("watcher views differ from the in-process mirror");
    } else {
      shared_.checks.succeeded();
    }
    if (watch_.killed) shared_.checks.failed("watcher killed");
  }

  int index_;
  Shared& shared_;
  NodeCount probeCapacity_;
  std::unique_ptr<net::IoExecutor> loop_;
  ProbeEndpoint endpoint_;
  WatchEndpoint watch_;
  std::unique_ptr<net::RmsClient> probe_;
  std::unique_ptr<net::RmsClient> watcher_;
  std::unique_ptr<net::RmsClient> stats_;
  std::set<std::int32_t> held_;
  std::uint64_t cycles_ = 0;
  bool broken_ = false;
  bool warmed_ = false;
  bool idled_ = false;
};

// --- population --------------------------------------------------------------

/// Per-cluster held-node accounting from the server's allocation observer:
/// node-seconds for node_util and held counts for the pool invariant.
class Ledger final : public AllocationObserver {
 public:
  explicit Ledger(const Machine& machine) {
    for (const ClusterSpec& c : machine.clusters) {
      held_[c.id.value] = 0;
      capacity_ += c.nodes;
    }
  }

  void onAllocationChanged(AppId, ClusterId cluster, NodeCount delta,
                           RequestType type, Time) override {
    if (type == RequestType::kPreAllocation) return;  // no node ids
    accrue();
    held_[cluster.value] += delta;
    total_ += delta;
  }
  void onAppKilled(AppId, Time) override { ++kills_; }

  void startWindow() {
    accrue();
    nodeSeconds_ = 0;
    windowStart_ = nowSeconds();
  }
  /// Allocated node-seconds / capacity node-seconds since startWindow().
  [[nodiscard]] double utilization() {
    accrue();
    const double span = nowSeconds() - windowStart_;
    return span > 0 ? nodeSeconds_ / (span * static_cast<double>(capacity_))
                    : 0.0;
  }
  [[nodiscard]] NodeCount held(ClusterId c) const {
    return held_.at(c.value);
  }
  [[nodiscard]] std::uint64_t kills() const { return kills_; }

 private:
  void accrue() {
    const double now = nowSeconds();
    if (last_ > 0) nodeSeconds_ += static_cast<double>(total_) * (now - last_);
    last_ = now;
  }

  std::unordered_map<std::int32_t, NodeCount> held_;
  NodeCount capacity_ = 0;
  NodeCount total_ = 0;
  double nodeSeconds_ = 0;
  double last_ = 0;
  double windowStart_ = 0;
  std::uint64_t kills_ = 0;
};

/// Which app holds each population node, from the start/end notifications
/// the apps receive: a node granted to a second app while the first still
/// holds it is a violation.
class NodeOwners {
 public:
  explicit NodeOwners(OpTally& checks) : checks_(checks) {}

  void started(AppId app, RequestId id, const std::vector<NodeId>& nodes) {
    for (const NodeId& n : nodes) {
      const auto [it, fresh] = owner_.try_emplace(key(n), app);
      if (!fresh && it->second != app) {
        checks_.failed("node held by two apps");
      }
      it->second = app;
    }
    requests_[app.value][id.value] = nodes;
  }
  void ended(AppId app, RequestId id) {
    auto& mine = requests_[app.value];
    const auto it = mine.find(id.value);
    if (it == mine.end()) return;
    const std::vector<NodeId> nodes = std::move(it->second);
    mine.erase(it);
    for (const NodeId& n : nodes) {
      const bool stillMine = std::any_of(
          mine.begin(), mine.end(), [&](const auto& entry) {
            return std::find(entry.second.begin(), entry.second.end(), n) !=
                   entry.second.end();
          });
      const auto o = owner_.find(key(n));
      if (!stillMine && o != owner_.end() && o->second == app) owner_.erase(o);
    }
  }
  void gone(AppId app) {
    for (const auto& [id, nodes] : requests_[app.value]) {
      for (const NodeId& n : nodes) {
        const auto o = owner_.find(key(n));
        if (o != owner_.end() && o->second == app) owner_.erase(o);
      }
    }
    requests_.erase(app.value);
  }

 private:
  static std::int64_t key(NodeId n) {
    return (static_cast<std::int64_t>(n.cluster.value) << 32) | n.index;
  }
  OpTally& checks_;
  std::unordered_map<std::int64_t, AppId> owner_;
  std::unordered_map<std::int32_t,
                     std::unordered_map<std::int64_t, std::vector<NodeId>>>
      requests_;
};

/// Population-side measurements, collected only while an untraced window
/// is open (`inWindow`).
struct PopulationStats {
  std::vector<double> sessionRequestUs;
  std::vector<double> timerLateMs;
  std::uint64_t jobsArrived = 0;
  std::uint64_t jobsStarted = 0;
  std::uint64_t appKills = 0;
  bool inWindow = false;
};

/// One population member: the app, the endpoint that forwards the RMS's
/// notifications to it, and the link that forwards its calls to the
/// Session. Both forwarders time and check what passes through.
class Member final : public AppEndpoint, public AppLink {
 public:
  Member(std::unique_ptr<Application> app, NodeOwners& owners,
         PopulationStats& stats, bool rigid)
      : app_(std::move(app)), owners_(owners), stats_(stats), rigid_(rigid) {}

  void connect(Server& server) {
    {
      trace::Span span("bench.session_connect");
      session_ = server.connect(*this, app_->name());
    }
    app_->attach(*this);
  }

  // AppEndpoint: the RMS -> app direction.
  void onViews(const View& np, const View& p) override {
    if (!gone_) app_->onViews(np, p);
  }
  void onStarted(RequestId id, const std::vector<NodeId>& nodes) override {
    if (gone_) return;
    owners_.started(session_->app(), id, nodes);
    if (rigid_ && stats_.inWindow) ++stats_.jobsStarted;
    app_->onStarted(id, nodes);
  }
  void onExpired(RequestId id) override {
    if (!gone_) app_->onExpired(id);
  }
  void onEnded(RequestId id) override {
    if (gone_) return;
    owners_.ended(session_->app(), id);
    app_->onEnded(id);
  }
  void onKilled() override {
    if (gone_) return;
    ++stats_.appKills;
    owners_.gone(session_->app());
    app_->onKilled();
  }

  // AppLink: the app -> RMS direction.
  RequestId request(const RequestSpec& spec) override {
    trace::Span span("bench.session_request");
    const metrics::Stopwatch watch;
    const RequestId id = session_->request(spec);
    if (stats_.inWindow) {
      stats_.sessionRequestUs.push_back(
          static_cast<double>(watch.elapsedNanos()) * 1e-3);
    }
    return id;
  }
  void done(RequestId id, std::vector<NodeId> released) override {
    trace::Span span("bench.session_done");
    session_->done(id, std::move(released));
  }
  using AppLink::done;
  void disconnect() override {
    trace::Span span("bench.session_disconnect");
    owners_.gone(session_->app());
    gone_ = true;
    session_->disconnect();
  }
  [[nodiscard]] AppId app() const override { return session_->app(); }

  [[nodiscard]] bool rigidStarted() const {
    return static_cast<RigidApp*>(app_.get())->startTime() != kNever;
  }

 private:
  std::unique_ptr<Application> app_;
  NodeOwners& owners_;
  PopulationStats& stats_;
  bool rigid_;
  Session* session_ = nullptr;
  bool gone_ = false;
};

/// The in-process idle session whose views the watcher must match.
struct MirrorEndpoint final : AppEndpoint {
  Shared* shared = nullptr;
  void onViews(const View& np, const View& p) override {
    const std::uint64_t h = hashViews(np, p);
    std::lock_guard lock(shared->mu);
    shared->mirrorHashes.push_back(h);
  }
};

// --- the rig: one live daemon + population ---------------------------------

/// One measured window of one set-up.
struct WindowData {
  int tag = 0;  ///< 0 untraced, 1 traced
  double startSeconds = 0;
  double endSeconds = 0;
  double cpu0 = 0;
  double cpu1 = 0;
  CpuTicks host0;
  CpuTicks host1;
  double nodeUtil = 0;
  metrics::Snapshot stats0;
  metrics::Snapshot stats1;
  /// Population measurements (untraced windows only).
  std::vector<double> sessionRequestUs;
  std::vector<double> timerLateMs;
  std::uint64_t jobsArrived = 0;
  std::uint64_t jobsStarted = 0;
  std::uint64_t backlogEnd = 0;
};

class Rig {
 public:
  /// `arrivalOffset`: the set-up replays the plan's arrivals from this
  /// many seconds on, so successive set-ups cover successive stretches.
  Rig(const Plan& plan, Shared& shared, double arrivalOffset)
      : plan_(plan),
        shared_(shared),
        ledger_(plan.machine),
        owners_(checks_),
        arrivalOffset_(arrivalOffset) {
    const std::uint64_t before = metrics::nowNanos();
    loop_ = defaultLoop();
    loopStartNs_ = (before + metrics::nowNanos()) / 2;

    RuntimeOptions runtime;
    runtime.reschedInterval = kReschedInterval;
    server_ = std::make_unique<Server>(*loop_, plan.machine,
                                       Server::Config::fromRuntime(runtime));
    server_->addObserver(&ledger_);
    daemon_ = std::make_unique<net::Daemon>(
        *loop_, *server_, net::Daemon::Config{{"127.0.0.1", 0}});
    shared_.port = daemon_->port();

    attachPopulation();
    armCheck();
  }

  /// Connects the in-process mirror right behind the watcher (views depend
  /// on connection order, so no other session may come between them), then
  /// starts the arrival schedule.
  void connectMirror() {
    mirror_.shared = &shared_;
    server_->connect(mirror_, "mirror");
    mirrorConnected_ = true;
    scheduleArrivals();
  }
  [[nodiscard]] bool mirrorConnected() const { return mirrorConnected_; }

  ~Rig() {
    // The loop never runs again: closures still queued on it are dropped
    // with it, after everything they point at.
    daemon_->close();
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  void spin(Time maxWait) { loop_->runOne(maxWait); }
  [[nodiscard]] std::uint64_t passes() const { return server_->passCount(); }

  /// Opens a window; `population` collects the population measurements
  /// (untraced windows only).
  void startWindow(WindowData& w, bool population) {
    w.startSeconds = nowSeconds();
    w.cpu0 = cpuSeconds();
    w.host0 = hostTicks();
    ledger_.startWindow();
    pop_.sessionRequestUs.clear();
    pop_.timerLateMs.clear();
    pop_.jobsStarted = 0;
    arrivedAtWindow_ = pop_.jobsArrived;
    pop_.inWindow = population;
  }
  void endWindow(WindowData& w) {
    w.endSeconds = nowSeconds();
    w.cpu1 = cpuSeconds();
    w.host1 = hostTicks();
    w.nodeUtil = ledger_.utilization();
    if (!pop_.inWindow) return;
    pop_.inWindow = false;
    w.sessionRequestUs = std::move(pop_.sessionRequestUs);
    w.timerLateMs = std::move(pop_.timerLateMs);
    w.jobsArrived = pop_.jobsArrived - arrivedAtWindow_;
    w.jobsStarted = pop_.jobsStarted;
    w.backlogEnd = backlog();
  }
  void stopArrivals() { stopArrivals_ = true; }

  /// Attaches a fresh journal at `path` holding one snapshot record of the
  /// live state, unless the rig already journals. After a journal-free
  /// window this is the restart input of recovery_s.
  void ensureJournal(const std::string& path) {
    if (journal_) return;
    std::filesystem::remove(path);
    journal_ = std::make_unique<rms::Journal>(path, 0);
    server_->attachJournal(journal_.get());
    server_->journalSnapshotNow();
  }

  /// Free + held = capacity on every cluster.
  void checkPool() {
    for (const ClusterSpec& c : plan_.machine.clusters) {
      const NodeCount free = server_->pool().freeCount(c.id);
      if (free + ledger_.held(c.id) != c.nodes || free < 0 || free > c.nodes) {
        checks_.failed("free + held != capacity on cluster " +
                          std::to_string(c.id.value));
      }
    }
    ++poolChecks_;
  }

  [[nodiscard]] std::uint64_t appKills() const {
    return pop_.appKills + ledger_.kills();
  }
  [[nodiscard]] OpTally& checks() { return checks_; }
  [[nodiscard]] std::uint64_t backlog() const {
    std::uint64_t waiting = 0;
    for (const Member* job : jobs_) waiting += job->rigidStarted() ? 0 : 1;
    return waiting;
  }
  [[nodiscard]] std::uint64_t poolChecks() const { return poolChecks_; }
  [[nodiscard]] std::size_t populationSize() const { return members_.size(); }

 private:
  void add(std::unique_ptr<Application> app, bool rigid) {
    members_.push_back(
        std::make_unique<Member>(std::move(app), owners_, pop_, rigid));
    members_.back()->connect(*server_);
    if (rigid) jobs_.push_back(members_.back().get());
  }

  void attachPopulation() {
    int n = 0;
    for (const PsaPlan& p : plan_.psas) {
      PsaApp::Config config;
      config.cluster = p.cluster;
      config.maxNodes = p.maxNodes;
      config.taskDuration = p.taskDuration;
      config.rngSeed = p.rngSeed;
      add(std::make_unique<PsaApp>(*loop_, "psa" + std::to_string(n++), config),
          false);
    }
    n = 0;
    for (const AmrPlan& a : plan_.amrs) {
      AmrApp::Config config;
      config.cluster = a.cluster;
      config.model = SpeedupModel(plan_.amrSpeedup);
      config.sizesMiB = a.sizesMiB;
      config.preallocNodes = a.preallocNodes;
      add(std::make_unique<AmrApp>(*loop_, "amr" + std::to_string(n++), config),
          false);
    }
  }

  void scheduleArrivals() {
    const Time origin = loop_->now();
    for (std::size_t i = 0; i < plan_.arrivals.size(); ++i) {
      const double at = plan_.arrivals[i].atSeconds - arrivalOffset_;
      if (at < 0) continue;
      // Timers fire on whole loop milliseconds: the first tick at or after
      // the due time.
      const Time tick = origin + static_cast<Time>(std::ceil(at * 1000.0));
      const double dueNs = static_cast<double>(loopStartNs_) +
                           static_cast<double>(origin) * 1e6 + at * 1e9;
      loop_->schedule(tick, [this, i, dueNs] {
        if (stopArrivals_) return;
        timerLate(dueNs);
        ++pop_.jobsArrived;
        const Arrival& a = plan_.arrivals[i];
        RigidApp::Config config{a.cluster, a.nodes, a.duration};
        add(std::make_unique<RigidApp>(*loop_, "job" + std::to_string(i),
                                       config),
            true);
      });
    }
  }

  void timerLate(double dueTickNs) {
    if (!pop_.inWindow) return;
    pop_.timerLateMs.push_back(
        (static_cast<double>(metrics::nowNanos()) - dueTickNs) * 1e-6);
  }

  /// Periodic pool invariant; its own lateness is sampled too, so every
  /// workload reports daemon-loop timer lateness.
  void armCheck() {
    const Time tick = loop_->now() + kCheckPeriod;
    loop_->schedule(tick, [this, tick] {
      timerLate(static_cast<double>(loopStartNs_) +
                static_cast<double>(tick) * 1e6);
      checkPool();
      armCheck();
    });
  }

  const Plan& plan_;
  Shared& shared_;
  OpTally checks_;
  Ledger ledger_;
  NodeOwners owners_;
  PopulationStats pop_;
  std::uint64_t loopStartNs_ = 0;
  double arrivalOffset_ = 0;
  // Destroyed bottom-up: the daemon before the server, the server before
  // the endpoints it points at and the journal it writes, the loop last.
  std::unique_ptr<net::IoExecutor> loop_;
  std::unique_ptr<rms::Journal> journal_;
  MirrorEndpoint mirror_;
  std::vector<std::unique_ptr<Member>> members_;
  std::vector<Member*> jobs_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<net::Daemon> daemon_;
  std::uint64_t arrivedAtWindow_ = 0;
  std::uint64_t poolChecks_ = 0;
  bool stopArrivals_ = false;
  bool mirrorConnected_ = false;
};

// --- recovery ------------------------------------------------------------------

/// One restart on a copy of the run's journal, through the calls
/// coorm_rmsd makes at start-up (scan, replay, clock jump, reattach,
/// listen), until a client's STATS reply shows the recovered daemon has
/// committed its first pass (or, after replaying nothing, until its first
/// STATS reply). Seconds, or nullopt when the restart failed.
std::optional<double> restartOnce(const Machine& machine,
                                  const std::string& journalCopy,
                                  const std::string& path) {
  std::filesystem::remove(path);
  if (std::filesystem::exists(journalCopy)) {
    std::filesystem::copy_file(journalCopy, path);
  }
  flushFilesystem(std::filesystem::path(path).parent_path().string());
  const std::uint64_t passesBefore =
      metrics::snapshot()[Histo::kPassLatencyUs].count;
  // The client thread exists before the clock starts; it dials as soon as
  // the daemon publishes its port.
  std::atomic<std::uint16_t> port{0};
  std::atomic<bool> needPass{false};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> t0{0};
  std::optional<double> seconds;
  std::thread client([&] {
    while (port == 0 && !done) std::this_thread::yield();
    if (done) return;
    try {
      auto clientLoop = defaultLoop();
      net::RmsClient stats(*clientLoop,
                           net::RmsClient::Config{{"127.0.0.1", port}, "recovery"});
      stats.dial();
      const std::uint64_t limit = t0 + 10'000'000'000ull;
      while (metrics::nowNanos() < limit) {
        const auto snap = stats.stats();
        if (!snap) break;
        if (!needPass || (*snap)[Histo::kPassLatencyUs].count > passesBefore) {
          seconds = static_cast<double>(metrics::nowNanos() - t0) * 1e-9;
          break;
        }
      }
      stats.disconnect();
    } catch (const std::exception& e) {
      std::cerr << "e2e: recovery client: " << e.what() << "\n";
    }
    done = true;
  });

  trace::Span span("bench.recovery_restart");
  t0 = metrics::nowNanos();
  auto loop = defaultLoop();
  RuntimeOptions runtime;
  runtime.reschedInterval = kReschedInterval;
  // Declared before the Server so the journal outlives every Server write.
  std::unique_ptr<rms::Journal> journal;
  Server server(*loop, machine, Server::Config::fromRuntime(runtime));
  const rms::ScanResult scan = rms::Journal::scan(path);
  Time lastTime = kNever;
  std::string error;
  if (scan.refused ||
      !server.restoreFromJournal(scan.records, &lastTime, &error)) {
    std::cerr << "e2e: journal replay failed: " << scan.diagnostic << error
              << "\n";
    done = true;
    client.join();
    return std::nullopt;
  }
  if (lastTime != kNever) loop->advanceTo(lastTime);
  journal = std::make_unique<rms::Journal>(path, scan.validBytes);
  server.attachJournal(journal.get());
  net::Daemon daemon(*loop, server, net::Daemon::Config{{"127.0.0.1", 0}});
  needPass = !scan.records.empty();
  port = daemon.port();
  while (!done) loop->runOne(msec(1));
  client.join();
  daemon.close();
  return seconds;
}

// --- trace analysis ----------------------------------------------------------

struct SelfTime {
  std::uint64_t count = 0;
  double selfUs = 0;
};

/// Self time per span name: each span's duration minus the part its
/// direct children on the same thread cover.
std::map<std::string, SelfTime> selfTimes(std::vector<trace::SpanEvent> spans) {
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.startNs != b.startNs) return a.startNs < b.startNs;
    return a.endNs > b.endNs;  // parents first
  });
  std::map<std::string, SelfTime> out;
  std::vector<std::size_t> stack;
  std::vector<double> childUs(spans.size(), 0.0);
  const auto close = [&](std::size_t i) {
    const double durUs =
        static_cast<double>(spans[i].endNs - spans[i].startNs) * 1e-3;
    SelfTime& s = out[spans[i].name];
    ++s.count;
    s.selfUs += std::max(0.0, durUs - childUs[i]);
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!stack.empty() &&
           (spans[stack.back()].tid != spans[i].tid ||
            spans[stack.back()].endNs <= spans[i].startNs)) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty() && spans[i].endNs <= spans[stack.back()].endNs) {
      childUs[stack.back()] +=
          static_cast<double>(spans[i].endNs - spans[i].startNs) * 1e-3;
    }
    stack.push_back(i);
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return out;
}

// --- metrics -------------------------------------------------------------------

struct Options {
  Workload workload = Workload::kRpcBare;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workDir = ".";
  std::string out;
};

double perOp(std::uint64_t value, std::uint64_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(value) / static_cast<double>(ops);
}

/// Counter deltas, histogram deltas and population measurements summed
/// over several windows (one per set-up).
struct Totals {
  std::array<std::uint64_t, metrics::kEventCount> events{};
  std::array<metrics::HistogramData, metrics::kHistoCount> histos{};
  std::int64_t arenaBytesHeld = 0;  ///< gauge at the last window's end
  double seconds = 0;
  double cpuSeconds = 0;
  double nodeUtilSeconds = 0;  ///< node_util weighted by window length
  std::uint64_t hostTicks = 0;
  std::uint64_t stealTicks = 0;
  std::vector<double> sessionRequestUs;
  std::vector<double> timerLateMs;
  std::uint64_t jobsArrived = 0;
  std::uint64_t jobsStarted = 0;
  std::uint64_t backlogEnd = 0;  ///< largest end-of-window backlog

  [[nodiscard]] std::uint64_t operator[](Event e) const {
    return events[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] const metrics::HistogramData& operator[](Histo h) const {
    return histos[static_cast<std::size_t>(h)];
  }
};

Totals total(const std::vector<WindowData>& windows) {
  Totals t;
  for (const WindowData& w : windows) {
    for (std::size_t i = 0; i < metrics::kEventCount; ++i) {
      const std::uint64_t a = w.stats0.events[i];
      const std::uint64_t b = w.stats1.events[i];
      t.events[i] += b >= a ? b - a : 0;
    }
    for (std::size_t i = 0; i < metrics::kHistoCount; ++i) {
      t.histos[i].merge(histogramDelta(w.stats0.histos[i], w.stats1.histos[i]));
    }
    t.arenaBytesHeld = w.stats1[metrics::Gauge::kArenaBytesHeld];
    const double span = w.endSeconds - w.startSeconds;
    t.seconds += span;
    t.cpuSeconds += w.cpu1 - w.cpu0;
    t.nodeUtilSeconds += w.nodeUtil * span;
    t.hostTicks += w.host1.total - w.host0.total;
    t.stealTicks += w.host1.steal - w.host0.steal;
    t.sessionRequestUs.insert(t.sessionRequestUs.end(),
                              w.sessionRequestUs.begin(),
                              w.sessionRequestUs.end());
    t.timerLateMs.insert(t.timerLateMs.end(), w.timerLateMs.begin(),
                         w.timerLateMs.end());
    t.jobsArrived += w.jobsArrived;
    t.jobsStarted += w.jobsStarted;
    t.backlogEnd = std::max(t.backlogEnd, w.backlogEnd);
  }
  return t;
}

/// The end-to-end metrics of one kind of window, pooled over set-ups.
struct EndToEnd {
  std::optional<double> rttP50, rttP99, startP50, startP99, lagP50, lagP99;
  /// Median of the 1000-sample block p99s (blockPercentile).
  std::optional<double> rttP99Block, startP99Block, lagP99Block;
  std::size_t rttN = 0, startN = 0, lagN = 0;
  double cyclesPerS = 0;
  std::uint64_t cycles = 0;
  double rttMeanUs = 0;
};

/// `samples` in time order; `windowOfRep` maps each set-up to the window
/// whose samples count.
EndToEnd endToEnd(const std::vector<CycleSample>& samples,
                  const std::vector<double>& lagMs,
                  const std::map<int, const WindowData*>& windowOfRep) {
  EndToEnd e;
  std::vector<double> rtt;
  std::vector<double> start;
  std::map<int, std::uint64_t> cyclesOfRep;
  for (const CycleSample& s : samples) {
    const auto w = windowOfRep.find(s.rep);
    if (w == windowOfRep.end() || s.window != w->second->tag) continue;
    rtt.push_back(s.rttUs);
    start.push_back(s.startWaitMs);
    if (s.endSeconds <= w->second->endSeconds) {
      ++e.cycles;
      ++cyclesOfRep[s.rep];
    }
  }
  // Throughput is taken per set-up and the median reported, like set-up
  // time: one set-up disturbed by the host does not move it.
  std::vector<double> rates;
  for (const auto& [rep, w] : windowOfRep) {
    const double span = w->endSeconds - w->startSeconds;
    if (span > 0) rates.push_back(static_cast<double>(cyclesOfRep[rep]) / span);
  }
  e.rttN = rtt.size();
  e.startN = start.size();
  e.lagN = lagMs.size();
  e.rttP50 = percentile(rtt, 0.50);
  e.rttP99 = percentile(rtt, 0.99);
  e.rttP99Block = blockPercentile(rtt, 0.99);
  e.startP50 = percentile(start, 0.50);
  e.startP99 = percentile(start, 0.99);
  e.startP99Block = blockPercentile(start, 0.99);
  e.lagP50 = percentile(lagMs, 0.50);
  e.lagP99 = percentile(lagMs, 0.99);
  e.lagP99Block = blockPercentile(lagMs, 0.99);
  e.cyclesPerS = median(rates).value_or(0.0);
  for (const double v : rtt) e.rttMeanUs += v / static_cast<double>(rtt.size());
  return e;
}

void addPerLayer(Report& r, const Totals& t, const EndToEnd& e,
                 std::uint64_t ops) {
  const auto hq = [&](Histo h, double q) { return histogramQuantile(t[h], q); };
  const auto hn = [&](Histo h) { return t[h].count; };
  const std::uint64_t passes = t[Event::kSchedulePasses];

  // net
  const auto daemonRtt = hq(Histo::kRequestRttUs, 0.50);
  r.add("net.daemon.request_rtt_us_p50", daemonRtt, "us",
        hn(Histo::kRequestRttUs));
  r.add("net.daemon.request_rtt_us_p99", hq(Histo::kRequestRttUs, 0.99), "us",
        hn(Histo::kRequestRttUs));
  r.add("net.daemon.outside_us_p50",
        e.rttP50 && daemonRtt ? std::optional(*e.rttP50 - *daemonRtt)
                              : std::nullopt,
        "us");
  // The wire and epoll counters are process-wide: they count the daemon
  // and the benchmark's own clients, the two ends of the loopback. The
  // daemon alone records the bytes each of its send(2) calls took
  // (write_batch_bytes); what the process encoded beyond those is what the
  // clients sent, i.e. what the daemon received.
  const std::uint64_t daemonOut = t[Histo::kWriteBatchBytes].sum;
  const std::uint64_t encoded = t[Event::kWireBytesOut];
  r.add("net.wire.bytes_out_per_op", perOp(daemonOut, ops), "B");
  r.add("net.wire.bytes_in_per_op",
        perOp(encoded > daemonOut ? encoded - daemonOut : 0, ops), "B");
  r.add("net.loopback.frames_per_op", perOp(t[Event::kFramesEncoded], ops),
        "count");
  r.add("net.loopback.epoll_wakeups_per_op",
        perOp(t[Event::kEpollWakeups], ops), "count");
  const std::uint64_t saved = t[Event::kViewsDeltaBytesSaved];
  r.add("net.wire.view_bytes_saved_ratio",
        perOp(saved, saved + daemonOut), "ratio");
  r.add("net.daemon.write_batch_bytes_p50", hq(Histo::kWriteBatchBytes, 0.5),
        "B", hn(Histo::kWriteBatchBytes));
  r.add("net.daemon.frames_coalesced_per_pass",
        perOp(t[Event::kFramesCoalesced], passes), "count");
  r.add("net.io.timer_late_ms_p99", percentile(t.timerLateMs, 0.99), "ms",
        t.timerLateMs.size());

  // apps (population)
  r.add("apps.jobs_started_per_s",
        t.seconds > 0 ? static_cast<double>(t.jobsStarted) / t.seconds : 0.0,
        "1/s", t.jobsStarted);
  r.add("apps.backlog_end", static_cast<double>(t.backlogEnd), "count");

  // rms.server
  r.add("rms.server.pass_us_p50", hq(Histo::kPassLatencyUs, 0.5), "us",
        hn(Histo::kPassLatencyUs));
  r.add("rms.server.pass_us_p99", hq(Histo::kPassLatencyUs, 0.99), "us",
        hn(Histo::kPassLatencyUs));
  const std::pair<const char*, Histo> phases[] = {
      {"prune", Histo::kPassPruneUs},
      {"capture", Histo::kPassCaptureUs},
      {"schedule", Histo::kPassScheduleUs},
      {"write_back", Histo::kPassWriteBackUs},
      {"views", Histo::kPassViewsUs},
      {"commit", Histo::kPassCommitUs}};
  for (const auto& [name, h] : phases) {
    r.add(std::string("rms.server.pass_") + name + "_us_p50", hq(h, 0.5), "us",
          hn(h));
  }
  r.add("rms.server.pass_schedule_us_p99", hq(Histo::kPassScheduleUs, 0.99),
        "us", hn(Histo::kPassScheduleUs));
  r.add("rms.server.pass_views_us_p99", hq(Histo::kPassViewsUs, 0.99), "us",
        hn(Histo::kPassViewsUs));
  r.add("rms.server.passes_per_s",
        t.seconds > 0 ? static_cast<double>(passes) / t.seconds : 0.0, "1/s",
        passes);
  r.add("rms.server.overlap_ratio",
        perOp(t[Event::kSchedulePassesOverlapped], passes), "ratio");
  r.add("rms.server.session_request_us_p50",
        percentile(t.sessionRequestUs, 0.5), "us", t.sessionRequestUs.size());
  r.add("rms.server.session_request_us_p99",
        percentile(t.sessionRequestUs, 0.99), "us", t.sessionRequestUs.size());

  // rms.scheduler / rms.snapshot
  const std::uint64_t dirty = t[Event::kPassAppsDirty];
  r.add("rms.scheduler.dirty_app_ratio",
        perOp(dirty, dirty + t[Event::kPassAppsClean]), "ratio");
  r.add("rms.scheduler.step2_reused_per_pass",
        perOp(t[Event::kStep2RangesReused], passes), "count");
  r.add("rms.scheduler.sweep_segments_per_pass",
        perOp(t[Event::kSweepSegmentsMerged], passes), "count");
  r.add("rms.scheduler.leases_renewed_per_pass",
        perOp(t[Event::kLeasesRenewed], passes), "count");
  const std::uint64_t skips = t[Event::kSnapshotSkips];
  r.add("rms.snapshot.skip_ratio",
        perOp(skips, skips + t[Event::kSnapshotRefreshes] +
                         t[Event::kSnapshotRebuilds]),
        "ratio");
  const std::uint64_t clean = t[Event::kWriteBackAppsClean];
  r.add("rms.snapshot.write_back_clean_ratio",
        perOp(clean, clean + t[Event::kWriteBackAppsDirty]), "ratio");

  // rms.journal
  r.add("rms.journal.fsync_us_p50", hq(Histo::kJournalFsyncUs, 0.5), "us",
        hn(Histo::kJournalFsyncUs));
  r.add("rms.journal.fsync_us_p99", hq(Histo::kJournalFsyncUs, 0.99), "us",
        hn(Histo::kJournalFsyncUs));
  r.add("rms.journal.fsyncs_per_op", perOp(t[Event::kJournalFsyncs], ops),
        "count");
  r.add("rms.journal.bytes_per_op",
        perOp(t[Event::kJournalBytesAppended], ops), "B");
  r.add("rms.journal.compactions",
        static_cast<double>(t[Event::kJournalCompactions]), "count");

  // profile
  r.add("profile.arena_slow_path_per_pass",
        perOp(t[Event::kArenaSlowPath], passes), "count");
  r.add("profile.arena_bytes_held", static_cast<double>(t.arenaBytesHeld),
        "B");

  // The host: CPU time the hypervisor took from this VM's vCPUs during the
  // windows. Runs with a high share are the noisy ones.
  r.add("host.cpu_steal_ratio", perOp(t.stealTicks, t.hostTicks), "ratio");

  // Layer budget. Means add up where percentiles do not: the pass phases
  // against the whole pass, the daemon's share of the client's RTT.
  const auto mean = [&](Histo h) { return t[h].mean(); };
  double phaseSum = 0;
  for (const auto& [name, h] : phases) phaseSum += mean(h);
  const double passMean = mean(Histo::kPassLatencyUs);
  r.add("budget.pass_mean_us", passMean, "us", hn(Histo::kPassLatencyUs));
  r.add("budget.pass_phase_sum_mean_us", phaseSum, "us");
  r.add("budget.pass_unexplained_us", passMean - phaseSum, "us");
  const double daemonMean = mean(Histo::kRequestRttUs);
  r.add("budget.rpc_rtt_mean_us", e.rttMeanUs, "us", e.rttN);
  r.add("budget.daemon_rtt_mean_us", daemonMean, "us",
        hn(Histo::kRequestRttUs));
  r.add("budget.rpc_outside_daemon_us", e.rttMeanUs - daemonMean, "us");
}

int usage(const char* error) {
  std::cerr << "coorm_e2e: " << error
            << "\nusage: coorm_e2e --workload rpc-bare|lease-steady|job-churn"
               " --seed N --seconds S --trace 0|1 --work-dir DIR --out FILE\n";
  return 2;
}

/// Everything one set-up contributes to the run.
struct SetupResult {
  double setupSeconds = 0;
  WindowData plain;
  std::optional<WindowData> traced;
  std::vector<CycleSample> samples;
  std::vector<double> lagPlain;
  std::vector<double> lagTraced;
  std::uint64_t lagEarly = 0;  ///< untraced view lags clamped to 0
  std::vector<trace::SpanEvent> spans;
  OpTally tally;
  std::size_t viewsCompared = 0;
  std::uint64_t poolChecks = 0;
  std::size_t populationApps = 0;
  double peakRssMb = 0;  ///< VmHWM at the end of the windows
};

/// One set-up: build the rig, connect and warm up the probes (timed as
/// set-up), measure an untraced window (and, if `tracedSeconds` > 0, a
/// traced one), run the end-of-run checks and tear everything down.
SetupResult runSetup(int rep, const Plan& plan, const std::string& journalPath,
                     double plainSeconds, double tracedSeconds,
                     const std::string& journalCopy) {
  SetupResult out;
  Shared shared;
  if (plan.journal) {
    flushFilesystem(std::filesystem::path(journalPath).parent_path().string());
  }
  const double t0 = nowSeconds();
  auto rig = std::make_unique<Rig>(plan, shared, rep * plainSeconds);
  const NodeCount probeCapacity = plan.machine.nodesOn(kProbeCluster);
  std::vector<std::unique_ptr<ProbeThread>> probes;
  std::vector<std::thread> threads;
  for (int i = 0; i < kProbes; ++i) {
    probes.push_back(std::make_unique<ProbeThread>(i, shared, probeCapacity));
  }
  const auto spinUntil = [&](auto pred) {
    while (!pred()) rig->spin(msec(2));
  };
  // Joins the probe threads on every path out, an exception's too; they
  // need the daemon loop turning to say goodbye.
  struct Joiner {
    std::vector<std::thread>& threads;
    std::function<void()> stop;
    ~Joiner() {
      if (!threads.empty() && threads.front().joinable()) stop();
      for (auto& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{threads, [&] {
             shared.phase = Phase::kQuit;
             spinUntil([&] { return shared.exited.load() == kProbes; });
           }};
  for (auto& p : probes) threads.emplace_back([&p] { p->run(); });
  spinUntil([&] {
    if (shared.watcherConnected && !rig->mirrorConnected()) {
      rig->connectMirror();
    }
    return shared.warmedUp.load() == kProbes && rig->passes() > 0;
  });
  out.setupSeconds = nowSeconds() - t0;
  // A journaling workload starts its journal here, as one snapshot record
  // of the warmed-up state. Journaling each connect and warm-up reply
  // fsynced dozens of times during set-up and tied setup_s to the shared
  // disk; the windows journal every transition.
  if (plan.journal) rig->ensureJournal(journalPath);

  const auto snapshot = [&](metrics::Snapshot& into) {
    int want = 0;
    {
      std::lock_guard lock(shared.mu);
      want = ++shared.snapshotsWanted;
    }
    spinUntil([&] {
      std::lock_guard lock(shared.mu);
      return std::ssize(shared.snapshots) >= want;
    });
    std::lock_guard lock(shared.mu);
    into = shared.snapshots.back();
  };
  const auto window = [&](WindowData& d, int tag, double seconds) {
    d.tag = tag;
    shared.window = tag;
    snapshot(d.stats0);
    rig->startWindow(d, tag == 0);
    shared.phase = Phase::kRun;
    const double end = d.startSeconds + seconds;
    spinUntil([&] { return nowSeconds() >= end; });
    rig->endWindow(d);
    snapshot(d.stats1);
  };
  window(out.plain, 0, plainSeconds);
  if (tracedSeconds > 0) {
    trace::reset();
    trace::enable();
    window(out.traced.emplace(), 1, tracedSeconds);
    trace::disable();
    out.spans = trace::collect();
  }
  out.peakRssMb = peakRssMb();
  shared.phase = Phase::kDrain;
  spinUntil([&] { return shared.idle.load() == kProbes; });
  rig->stopArrivals();
  rig->ensureJournal(journalPath);
  std::filesystem::copy_file(journalPath, journalCopy,
                             std::filesystem::copy_options::overwrite_existing);
  shared.phase = Phase::kCheck;
  spinUntil([&] { return shared.checkDone.load(); });
  shared.phase = Phase::kQuit;
  spinUntil([&] { return shared.exited.load() == kProbes; });
  for (auto& t : threads) t.join();
  rig->spin(0);
  rig->checkPool();

  for (auto& p : probes) {
    out.samples.insert(out.samples.end(), p->result.samples.begin(),
                       p->result.samples.end());
    out.tally.merge(p->result.tally);
  }
  for (CycleSample& s : out.samples) s.rep = rep;
  std::sort(out.samples.begin(), out.samples.end(),
            [](const CycleSample& a, const CycleSample& b) {
              return a.endSeconds < b.endSeconds;
            });
  {
    std::lock_guard lock(shared.mu);
    out.tally.merge(shared.checks);
    std::uint64_t missed = shared.viewLagMissed;
    for (const auto& queue : shared.pending) {
      missed += static_cast<std::uint64_t>(std::count_if(
          queue.begin(), queue.end(), [](const auto& a) { return a.window >= 0; }));
    }
    if (missed > 0) {
      out.tally.failed("views never showed " + std::to_string(missed) +
                          " probe allocations");
    }
    out.lagPlain = shared.viewLagMs[0];
    out.lagTraced = shared.viewLagMs[1];
    out.lagEarly = shared.viewLagEarly[0];
  }
  out.tally.merge(rig->checks());
  // Rigid jobs are operations too: one arrived in the window either runs
  // normally or shows up as a kill below.
  for (std::uint64_t j = 0; j < out.plain.jobsArrived; ++j) {
    out.tally.succeeded();
  }
  if (rig->appKills() > 0) {
    out.tally.failed("population apps killed: " +
                        std::to_string(rig->appKills()));
  }
  for (const WindowData* w : {&out.plain, out.traced ? &*out.traced : nullptr}) {
    if (w == nullptr) continue;
    if (w->stats1[Event::kViewsResync] != w->stats0[Event::kViewsResync]) {
      out.tally.failed("views_resync > 0");
    }
    if (w->stats1[Event::kDeadPeerDrops] != w->stats0[Event::kDeadPeerDrops]) {
      out.tally.failed("dead_peer_drops > 0");
    }
  }
  out.viewsCompared = probes[0]->result.viewsCompared;
  out.poolChecks = rig->poolChecks();
  out.populationApps = rig->populationSize();
  return out;
}

int runBenchmark(const Options& opt) {
  std::filesystem::create_directories(opt.workDir);
  const std::string journalPath = opt.workDir + "/journal.bin";
  const std::string journalCopy = opt.workDir + "/journal.copy";
  std::filesystem::remove(journalCopy);
  // Arrivals must outlast the last set-up's offset and its windows.
  const Plan plan = makePlan(opt.workload, opt.seed, 2 * opt.seconds + 60.0);

  // The window is split over the set-ups: each rebuilds the daemon and
  // its threads, so the pooled figures average over thread placements.
  // After each set-up, the daemon restarts on a copy of its journal a few
  // times, so the restarts sample nine stretches of the host's disk and
  // CPU weather rather than one.
  std::vector<SetupResult> setups;
  OpTally tally;
  std::vector<double> restarts;
  for (int rep = 0; rep < kSetups; ++rep) {
    const bool last = rep + 1 == kSetups;
    setups.push_back(runSetup(rep, plan, journalPath, opt.seconds / kSetups,
                              last && opt.trace ? opt.seconds / 2 : 0.0,
                              journalCopy));
    const double from = nowSeconds();
    for (int i = 0; i < kMaxRestartsPerSetup &&
                    (i < kMinRestartsPerSetup || nowSeconds() - from < 0.1);
         ++i) {
      const auto s = restartOnce(plan.machine, journalCopy,
                                 opt.workDir + "/journal.restart");
      if (s) {
        restarts.push_back(*s);
      } else {
        tally.failed("journal restart failed");
      }
    }
  }

  std::vector<double> setupSeconds;
  std::vector<WindowData> plain;
  std::vector<CycleSample> samples;
  std::vector<double> lagPlain;
  std::uint64_t lagEarly = 0;
  std::map<int, const WindowData*> plainOfRep;
  std::size_t viewsCompared = 0;
  std::uint64_t poolChecks = 0;
  for (const SetupResult& s : setups) {
    tally.merge(s.tally);
    setupSeconds.push_back(s.setupSeconds);
    plain.push_back(s.plain);
    samples.insert(samples.end(), s.samples.begin(), s.samples.end());
    lagPlain.insert(lagPlain.end(), s.lagPlain.begin(), s.lagPlain.end());
    lagEarly += s.lagEarly;
    viewsCompared += s.viewsCompared;
    poolChecks += s.poolChecks;
  }
  for (std::size_t i = 0; i < setups.size(); ++i) {
    plainOfRep[static_cast<int>(i)] = &setups[i].plain;
  }

  Report report;
  const Totals t = total(plain);
  const EndToEnd e = endToEnd(samples, lagPlain, plainOfRep);

  report.add("rpc_rtt_p50_us", e.rttP50, "us", e.rttN);
  report.add("rpc_rtt_p99_us", e.rttP99, "us", e.rttN);
  report.add("rpc_rtt_p99_blockmed_us", e.rttP99Block, "us", e.rttN);
  report.add("start_wait_p50_ms", e.startP50, "ms", e.startN);
  report.add("start_wait_p99_ms", e.startP99, "ms", e.startN);
  report.add("start_wait_p99_blockmed_ms", e.startP99Block, "ms", e.startN);
  report.add("view_lag_p50_ms", e.lagP50, "ms", e.lagN);
  report.add("view_lag_p99_ms", e.lagP99, "ms", e.lagN);
  report.add("view_lag_p99_blockmed_ms", e.lagP99Block, "ms", e.lagN);
  report.add("view_lag_early", static_cast<double>(lagEarly), "count");
  report.add("cycles_per_s", e.cyclesPerS, "1/s", e.cycles);
  // Process CPU time (the daemon, the population and the probe clients)
  // per completed probe cycle or started rigid job. CPU time is not
  // charged while the hypervisor steals the vCPU or the loop waits on
  // fsync, so this is the speed figure least moved by the host.
  const std::uint64_t completed = e.cycles + t.jobsStarted;
  report.add("cpu_us_per_op",
             completed > 0 ? t.cpuSeconds * 1e6 / static_cast<double>(completed)
                           : std::optional<double>(),
             "us", completed);
  report.add("node_util", t.seconds > 0 ? t.nodeUtilSeconds / t.seconds : 0.0,
             "ratio");
  report.add("cpu_util", t.seconds > 0 ? t.cpuSeconds / t.seconds : 0.0,
             "ratio");
  // The first set-up's peak is a fresh process hosting one daemon; later
  // set-ups start from whatever the allocators kept of the earlier ones.
  report.add("rss_mb", setups.front().peakRssMb, "MiB");
  report.add("setup_s", median(setupSeconds), "s", setupSeconds.size());

  report.add("recovery_s", median(restarts), "s", restarts.size());

  addPerLayer(report, t, e, e.cycles + t.jobsArrived);

  const SetupResult& last = setups.back();
  if (last.traced) {
    const EndToEnd traced = endToEnd(
        last.samples, last.lagTraced,
        {{static_cast<int>(setups.size()) - 1, &*last.traced}});
    const auto overhead = [](std::optional<double> with,
                             std::optional<double> without) {
      return with && without && *without > 0
                 ? std::optional(*with / *without - 1.0)
                 : std::nullopt;
    };
    report.add("trace.overhead.rpc_rtt_p50",
               overhead(traced.rttP50, e.rttP50), "ratio", traced.rttN);
    report.add("trace.overhead.start_wait_p50",
               overhead(traced.startP50, e.startP50), "ratio", traced.startN);
    report.add("trace.overhead.view_lag_p50",
               overhead(traced.lagP50, e.lagP50), "ratio", traced.lagN);
    report.add("trace.overhead.cycles_per_s",
               overhead(traced.cyclesPerS, e.cyclesPerS), "ratio",
               traced.cycles);
    for (const auto& [name, st] : selfTimes(last.spans)) {
      report.add("trace." + name + ".self_us_mean",
                 st.count > 0 ? st.selfUs / static_cast<double>(st.count) : 0.0,
                 "us", st.count);
    }
    std::string error;
    if (!trace::writeChromeTrace(opt.workDir + "/trace.json", &error)) {
      std::cerr << "coorm_e2e: trace export: " << error << "\n";
    }
    report.note("trace_file", opt.workDir + "/trace.json");
  }

  report.note("workload", toString(opt.workload));
  report.note("seed", std::to_string(opt.seed));
  report.note("seconds", std::to_string(opt.seconds));
  report.note("trace", opt.trace ? "1" : "0");
  report.note("resched_interval_ms", std::to_string(kReschedInterval));
  report.note("probes", std::to_string(kProbes));
  report.note("setups", std::to_string(kSetups));
  report.note("restarts", std::to_string(restarts.size()));
  report.note("p99_block", std::to_string(kPercentileBlock));
  report.note("threads_max", std::to_string(2 + kProbes));
  report.note("connections_max", std::to_string(2 + kProbes));
  report.note("population_apps", std::to_string(last.populationApps));
  report.note("pool_checks", std::to_string(poolChecks));
  report.note("views_compared", std::to_string(viewsCompared));
  std::string reasons;
  for (const auto& [reason, count] : tally.reasons()) {
    reasons += reason + " x" + std::to_string(count) + "; ";
  }
  report.note("failures", reasons);

  const bool correct = tally.failedCount() == 0;
  std::ostringstream record;
  record << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << tally.attempted()
         << ", \"failed\": " << tally.failedCount()
         << ", \"report\": " << report.toJson() << "}\n";
  if (!opt.out.empty()) std::ofstream(opt.out) << record.str();
  std::cout << record.str();
  if (!correct) std::cerr << "coorm_e2e: checks failed: " << reasons << "\n";
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") {
        const auto w = parseWorkload(v);
        if (!w) return usage(("unknown workload " + v).c_str());
        opt.workload = *w;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(v);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (arg == "--trace") {
        opt.trace = v == "1";
      } else if (arg == "--work-dir") {
        opt.workDir = v;
      } else if (arg == "--out") {
        opt.out = v;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be > 0");
  try {
    return runBenchmark(opt);
  } catch (const std::exception& error) {
    std::cerr << "coorm_e2e: " << error.what() << "\n";
    return 1;
  }
}
