#include "coorm/rms/server.hpp"

#include <algorithm>
#include <random>
#include <span>

#include "coorm/common/check.hpp"
#include "coorm/common/log.hpp"
#include "coorm/common/trace.hpp"
#include "coorm/net/wire.hpp"
#include "coorm/rms/journal.hpp"

namespace coorm {

namespace {

/// Session-token mixer (splitmix64): tokens must be stable across the
/// session's life and hard to guess from an app id, not cryptographic.
std::uint64_t mixToken(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr std::size_t kCookieCacheCap = 1024;

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

RequestId Session::request(const RequestSpec& spec) {
  return request(spec, /*cookie=*/0);
}

RequestId Session::request(const RequestSpec& spec, std::uint64_t cookie) {
  Server::SessionState* st = server_->findSession(app_);
  COORM_CHECK(st != nullptr);
  if (st->killed || st->disconnected) return RequestId{};
  return server_->handleRequest(*st, spec, cookie);
}

void Session::done(RequestId id, std::vector<NodeId> released) {
  Server::SessionState* st = server_->findSession(app_);
  COORM_CHECK(st != nullptr);
  if (st->killed || st->disconnected) return;
  server_->handleDone(*st, id, std::move(released));
}

void Session::disconnect() {
  Server::SessionState* st = server_->findSession(app_);
  COORM_CHECK(st != nullptr);
  if (st->killed || st->disconnected) return;
  server_->handleDisconnect(*st);
}

bool Session::killed() const {
  Server::SessionState* st = server_->findSession(app_);
  COORM_CHECK(st != nullptr);
  return st->killed;
}

const View& Session::nonPreemptiveView() const {
  Server::SessionState* st = server_->findSession(app_);
  COORM_CHECK(st != nullptr);
  return st->lastNonPreemptive;
}

const View& Session::preemptiveView() const {
  Server::SessionState* st = server_->findSession(app_);
  COORM_CHECK(st != nullptr);
  return st->lastPreemptive;
}

// ---------------------------------------------------------------------------
// Server: construction & sessions
// ---------------------------------------------------------------------------

Server::Server(Executor& executor, Machine machine)
    : Server(executor, std::move(machine), Config{}) {}

Server::Server(Executor& executor, Machine machine, Config config)
    : executor_(executor),
      scheduler_(machine, Scheduler::Config{config.strictEquiPartition}),
      pool_(machine),
      config_(config) {
  tokenSeed_ = (std::uint64_t{std::random_device{}()} << 32) ^
               std::random_device{}();
}

Server::~Server() = default;

Session* Server::connect(AppEndpoint& endpoint, std::string name) {
  auto st = std::make_unique<SessionState>();
  st->app = AppId{nextAppId_++};
  st->endpoint = &endpoint;
  st->token = mixToken(tokenSeed_ ^ static_cast<std::uint64_t>(st->app.value));
  st->name = std::move(name);
  st->session.reset(new Session(this, st->app));
  Session* session = st->session.get();
  journalSessionOpen(*st);
  sessions_.push_back(std::move(st));
  metrics::add(metrics::Gauge::kLiveSessions, 1);
  if (tracing()) trace(toString(session->app()), "connect");
  journalSyncNow();
  requestReschedule();
  return session;
}

Server::SessionState* Server::findSession(AppId app) {
  for (auto& st : sessions_) {
    if (st->app == app) return st.get();
  }
  return nullptr;
}

RequestSet& Server::setFor(SessionState& st, RequestType type) {
  switch (type) {
    case RequestType::kPreAllocation: return st.preAllocations;
    case RequestType::kNonPreemptible: return st.nonPreemptible;
    case RequestType::kPreemptible: return st.preemptible;
  }
  COORM_CHECK(false && "bad request type");
  __builtin_unreachable();
}

const Request* Server::findRequest(RequestId id) {
  const auto it = requestIndex_.find(id.value);
  return it != requestIndex_.end() ? it->second.second : nullptr;
}

bool Server::tracing() const {
  return trace_ != nullptr || logLevel() <= LogLevel::kDebug;
}

void Server::trace(const std::string& actor, const std::string& what) {
  if (trace_ != nullptr) trace_->record(executor_.now(), actor, what);
  COORM_LOG(LogLevel::kDebug, "rms") << actor << ": " << what;
}

// ---------------------------------------------------------------------------
// Message handlers
// ---------------------------------------------------------------------------

RequestId Server::handleRequest(SessionState& st, const RequestSpec& spec,
                                std::uint64_t cookie) {
  COORM_CHECK(spec.nodes > 0);
  COORM_CHECK(spec.duration > 0);
  COORM_CHECK(scheduler_.machine().nodesOn(spec.cluster) > 0);

  if (cookie != 0) {
    // Reconnect replay dedup: a REQUEST whose ack the client never saw
    // comes back with the same cookie — re-acknowledge the id it already
    // has instead of accepting a duplicate.
    for (const auto& [seen, id] : st.cookieCache) {
      if (seen == cookie) {
        if (tracing()) {
          trace(toString(st.app),
                "request deduped by cookie -> " + toString(id));
        }
        return id;
      }
    }
  }

  Request* related = nullptr;
  if (spec.relatedHow != Relation::kFree) {
    const auto it = requestIndex_.find(spec.relatedTo.value);
    if (it == requestIndex_.end() || it->second.first != st.app) {
      // Constraint target unknown (e.g. already pruned) or not owned by
      // this application: reject (paper A.6: invalid requests are not
      // handled gracefully — but they must not take the RMS down).
      COORM_LOG(LogLevel::kWarn, "rms")
          << toString(st.app) << " constraint target "
          << toString(spec.relatedTo) << " rejected";
      if (tracing()) {
        trace(toString(st.app), "request rejected (bad constraint target)");
      }
      return RequestId{};
    }
    related = it->second.second;
  }

  markDirty(st);

  // Implicit pre-allocation wrap (§3.2): a bare non-preemptible request of
  // an application that manages no explicit pre-allocation gets a shadow PA
  // of the same shape, so it is schedulable "inside a pre-allocation".
  Request* wrapper = nullptr;
  if (spec.type == RequestType::kNonPreemptible && config_.implicitWrap) {
    bool hasExplicitPa = false;
    for (const Request* pa : st.preAllocations) {
      if (!pa->implicit && !pa->ended()) {
        hasExplicitPa = true;
        break;
      }
    }
    if (!hasExplicitPa) {
      auto wrapped = std::make_unique<Request>();
      wrapped->id = RequestId{nextRequestId_++};
      wrapped->app = st.app;
      wrapped->cluster = spec.cluster;
      wrapped->nodes = spec.nodes;
      wrapped->duration = spec.duration;
      wrapped->type = RequestType::kPreAllocation;
      wrapped->relatedHow = spec.relatedHow;
      wrapped->implicit = true;
      if (related != nullptr) {
        // Mirror the NP chain on the PA side when the target has a wrapper.
        const auto wit = st.wrapperOf.find(related);
        wrapped->relatedTo =
            wit != st.wrapperOf.end() ? wit->second : related;
      }
      wrapper = wrapped.get();
      st.preAllocations.add(wrapper);
      requestIndex_.emplace(wrapper->id.value,
                            std::make_pair(st.app, wrapper));
      st.owned.push_back(std::move(wrapped));
    }
  }

  auto request = std::make_unique<Request>();
  request->id = RequestId{nextRequestId_++};
  request->app = st.app;
  request->cluster = spec.cluster;
  request->nodes = spec.nodes;
  request->duration = spec.duration;
  request->type = spec.type;
  request->relatedHow = spec.relatedHow;
  request->relatedTo = related;
  if (wrapper != nullptr && spec.relatedHow == Relation::kFree) {
    // Anchor the bare NP request to its shadow PA so they start together.
    // NEXT/COALLOC relations are kept as sent (node-ID inheritance relies
    // on them); their wrappers mirror the chain instead.
    request->relatedHow = Relation::kCoAlloc;
    request->relatedTo = wrapper;
  }

  Request* raw = request.get();
  setFor(st, spec.type).add(raw);
  requestIndex_.emplace(raw->id.value, std::make_pair(st.app, raw));
  st.owned.push_back(std::move(request));
  if (wrapper != nullptr) st.wrapperOf.emplace(raw, wrapper);

  if (cookie != 0) {
    if (st.cookieCache.size() >= kCookieCacheCap) {
      st.cookieCache.erase(st.cookieCache.begin());
    }
    st.cookieCache.emplace_back(cookie, raw->id);
  }
  journalRequest(st, *raw, wrapper, cookie);
  journalSyncNow();  // durable before the caller can ack the id

  if (tracing()) trace(toString(st.app), "request " + raw->describe());
  requestReschedule();
  return raw->id;
}

void Server::handleDone(SessionState& st, RequestId id,
                        std::vector<NodeId> released) {
  const auto it = requestIndex_.find(id.value);
  if (it == requestIndex_.end() || it->second.first != st.app) return;
  Request* r = it->second.second;
  if (r->ended()) return;

  if (tracing()) {
    trace(toString(st.app), "done " + toString(id) + " releasing " +
                                std::to_string(released.size()) + " nodes");
  }
  if (!r->started()) {
    cancelUnstarted(st, *r);
  } else {
    endRequest(st, *r, std::move(released));
  }
  journalSyncNow();  // ends release nodes others may be granted: durable
  requestReschedule();
}

void Server::handleDisconnect(SessionState& st) {
  if (tracing()) trace(toString(st.app), "disconnect");
  journalSessionEvent(rms::RecordType::kSessionClosed, st.app,
                      executor_.now());
  markDirty(st);
  for (auto& owned : st.owned) {
    Request& r = *owned;
    if (r.ended()) continue;
    const auto timer = expiryTimers_.find(r.id.value);
    if (timer != expiryTimers_.end()) {
      Executor::cancel(timer->second);
      expiryTimers_.erase(timer);
    }
    releaseAllIds(st, r);
    r.endedAt = executor_.now();
    notifyPaEnd(st, r);
  }
  st.disconnected = true;
  metrics::add(metrics::Gauge::kLiveSessions, -1);
  Executor::cancel(st.violationTimer);
  journalSyncNow();
  requestReschedule();
}

// ---------------------------------------------------------------------------
// Request lifecycle
// ---------------------------------------------------------------------------

void Server::notifyPaEnd(SessionState& st, Request& r) {
  if (r.type != RequestType::kPreAllocation || !r.started()) return;
  for (AllocationObserver* observer : observers_) {
    observer->onAllocationChanged(st.app, r.cluster, -r.nodes, r.type,
                                  executor_.now());
  }
}

void Server::releaseIds(SessionState& st, Request& r,
                        std::vector<NodeId> ids) {
  if (ids.empty()) return;
  // Keep only IDs the request actually holds (tolerate sloppy callers).
  std::vector<NodeId> actual;
  for (const NodeId& id : ids) {
    const auto it = std::find(r.nodeIds.begin(), r.nodeIds.end(), id);
    if (it != r.nodeIds.end()) {
      r.nodeIds.erase(it);
      actual.push_back(id);
    }
  }
  if (actual.empty()) return;
  markDirty(st);
  pool_.release(actual);
  for (AllocationObserver* observer : observers_) {
    observer->onAllocationChanged(st.app, r.cluster, -std::ssize(actual),
                                  r.type, executor_.now());
  }
}

void Server::releaseAllIds(SessionState& st, Request& r) {
  releaseIds(st, r, r.nodeIds);
}

Request* Server::findUnstartedNextChild(SessionState& st, Request& r) {
  for (Request* candidate : setFor(st, r.type)) {
    if (candidate->relatedTo == &r &&
        candidate->relatedHow == Relation::kNext && !candidate->started() &&
        !candidate->ended()) {
      return candidate;
    }
  }
  return nullptr;
}

void Server::endRequest(SessionState& st, Request& r,
                        std::vector<NodeId> released) {
  COORM_CHECK(r.started() && !r.ended());
  markDirty(st);
  const Time now = executor_.now();

  const auto timer = expiryTimers_.find(r.id.value);
  if (timer != expiryTimers_.end()) {
    Executor::cancel(timer->second);
    expiryTimers_.erase(timer);
  }

  // Paper done(): the duration becomes the time actually used.
  r.duration = std::max<Time>(now - r.startedAt, 0);
  r.endedAt = now;
  journalEnded(r, now, r.duration, released);
  notifyPaEnd(st, r);

  Request* successor = findUnstartedNextChild(st, r);
  if (successor != nullptr) {
    // NEXT transition: the application keeps common resources. Whatever it
    // chose to release goes back to the pool; the rest moves to the
    // successor (extra IDs, if the successor grows, are attached when it
    // starts).
    releaseIds(st, r, std::move(released));
    successor->nodeIds.insert(successor->nodeIds.end(), r.nodeIds.begin(),
                              r.nodeIds.end());
    r.nodeIds.clear();
  } else {
    releaseAllIds(st, r);
  }

  // An implicit wrapper PA lives exactly as long as the request it wraps.
  const auto wit = st.wrapperOf.find(&r);
  if (wit != st.wrapperOf.end()) {
    Request* wrapper = wit->second;
    st.wrapperOf.erase(wit);
    if (!wrapper->ended()) {
      if (wrapper->started()) {
        wrapper->duration = std::max<Time>(now - wrapper->startedAt, 0);
        wrapper->endedAt = now;
        journalEnded(*wrapper, now, wrapper->duration, {});
        notifyPaEnd(st, *wrapper);
      } else {
        cancelUnstarted(st, *wrapper);
      }
    }
  }

  if (!st.killed && !st.disconnected && !r.implicit &&
      st.endpoint != nullptr) {
    r.endNotified = true;
    AppEndpoint* endpoint = st.endpoint;
    const RequestId id = r.id;
    executor_.after(0, [endpoint, id] { endpoint->onEnded(id); });
  }
}

void Server::cancelUnstarted(SessionState& st, Request& r) {
  COORM_CHECK(!r.started() && !r.ended());
  markDirty(st);
  // Inherited node IDs stashed on a pending NEXT successor go back.
  releaseAllIds(st, r);
  // Orphan children: they lose their constraint rather than dangle.
  for (auto& owned : st.owned) {
    if (owned->relatedTo == &r) {
      owned->relatedTo = nullptr;
      owned->relatedHow = Relation::kFree;
    }
  }
  r.endedAt = executor_.now();
  journalEnded(r, r.endedAt, r.duration, {});
  // Cancel the implicit wrapper PA along with the request it wraps.
  const auto wit = st.wrapperOf.find(&r);
  if (wit != st.wrapperOf.end()) {
    Request* wrapper = wit->second;
    st.wrapperOf.erase(wit);
    if (!wrapper->ended()) {
      if (wrapper->started()) {
        wrapper->duration =
            std::max<Time>(executor_.now() - wrapper->startedAt, 0);
        wrapper->endedAt = executor_.now();
        journalEnded(*wrapper, wrapper->endedAt, wrapper->duration, {});
        notifyPaEnd(st, *wrapper);
      } else {
        cancelUnstarted(st, *wrapper);
      }
    }
  }
  if (!st.killed && !st.disconnected && !r.implicit &&
      st.endpoint != nullptr) {
    r.endNotified = true;
    AppEndpoint* endpoint = st.endpoint;
    const RequestId id = r.id;
    executor_.after(0, [endpoint, id] { endpoint->onEnded(id); });
  }
}

void Server::onExpiryTimer(AppId app, RequestId id) {
  SessionState* st = findSession(app);
  if (st == nullptr || st->killed || st->disconnected) return;
  const auto it = requestIndex_.find(id.value);
  if (it == requestIndex_.end()) return;
  Request* r = it->second.second;
  if (r->ended()) return;

  expiryTimers_.erase(id.value);
  if (tracing()) trace("rms", "expiry of " + toString(id));

  // Pre-allocations carry no node IDs, so there is nothing the application
  // must decide at their end; implicit wrappers in particular must stay
  // invisible. End them server-side.
  if (r->type == RequestType::kPreAllocation) {
    endRequest(*st, *r, {});
    journalSyncNow();
    return;
  }

  // The application decides what happens at the end of a request (which
  // node IDs move to a NEXT successor, whether to re-request, ...), so ask
  // it — but arm a backstop: not answering is a protocol violation. A
  // detached session gets the announcement at resume instead (the backstop
  // still runs: an app that never comes back is in violation).
  if (st->endpoint != nullptr) {
    r->expiryNotified = true;
    AppEndpoint* endpoint = st->endpoint;
    executor_.after(0, [endpoint, id] { endpoint->onExpired(id); });
  }

  executor_.after(config_.violationGrace, [this, app, id] {
    SessionState* session = findSession(app);
    if (session == nullptr || session->killed || session->disconnected) return;
    const auto entry = requestIndex_.find(id.value);
    if (entry == requestIndex_.end()) return;
    if (!entry->second.second->ended()) {
      if (tracing()) {
        trace("rms", "killing " + toString(app) + ": request " +
                         toString(id) + " not terminated after expiry");
      }
      killApp(*session);
    }
  });
}

void Server::killApp(SessionState& st) {
  st.killed = true;
  journalSessionEvent(rms::RecordType::kAppKilled, st.app, executor_.now());
  metrics::add(metrics::Gauge::kLiveSessions, -1);
  markDirty(st);
  Executor::cancel(st.violationTimer);
  for (auto& owned : st.owned) {
    Request& r = *owned;
    if (r.ended()) continue;
    const auto timer = expiryTimers_.find(r.id.value);
    if (timer != expiryTimers_.end()) {
      Executor::cancel(timer->second);
      expiryTimers_.erase(timer);
    }
    releaseAllIds(st, r);
    r.endedAt = executor_.now();
    notifyPaEnd(st, r);
  }
  for (AllocationObserver* observer : observers_) {
    observer->onAppKilled(st.app, executor_.now());
  }
  if (st.endpoint != nullptr) {
    AppEndpoint* endpoint = st.endpoint;
    executor_.after(0, [endpoint] { endpoint->onKilled(); });
  }
  journalSyncNow();
  requestReschedule();
}

// ---------------------------------------------------------------------------
// Scheduling passes
// ---------------------------------------------------------------------------

void Server::requestReschedule() {
  if (passPending_) return;
  const Time now = executor_.now();
  const Time due = lastPassAt_ == kNever
                       ? now
                       : std::max(now, satAdd(lastPassAt_, config_.reschedInterval));
  passPending_ = true;
  executor_.schedule(due, [this] {
    passPending_ = false;
    runPass();
  });
}

void Server::runSchedulingPassNow() { runPass(); }

void Server::runPass() {
  lastPassAt_ = executor_.now();
  ++passCount_;
  metrics::increment(metrics::Event::kSchedulePasses);
  passPhases_ = PassPhases{};
  passPhases_.startNs = metrics::nowNanos();

  {
    trace::Span span("prune");
    const metrics::Stopwatch watch;
    pruneEnded();
    passPhases_.pruneUs = watch.elapsedMicros();
    metrics::record(metrics::Histo::kPassPruneUs, passPhases_.pruneUs);
  }

  {
    trace::Span span("capture");
    const metrics::Stopwatch watch;
    std::vector<AppSchedule> apps;
    passApps_.clear();
    for (auto& st : sessions_) {
      if (st->killed || st->disconnected) continue;
      AppSchedule app;
      app.app = st->app;
      app.preAllocations = &st->preAllocations;
      app.nonPreemptible = &st->nonPreemptible;
      app.preemptible = &st->preemptible;
      app.epoch = st->mutationEpoch;
      apps.push_back(std::move(app));
      passApps_.push_back(st.get());
    }
    if (passSnapshot_ == nullptr) {
      passSnapshot_ = std::make_unique<RequestSetSnapshot>();
    }
    passSnapshot_->recapture(apps);  // in place: steady state allocates nothing
    passPhases_.captureUs = watch.elapsedMicros();
    metrics::record(metrics::Histo::kPassCaptureUs, passPhases_.captureUs);
  }

  try {
    trace::Span span("schedule");
    const metrics::Stopwatch watch;
    scheduler_.schedulePass(*passSnapshot_, lastPassAt_);
    passPhases_.scheduleUs = watch.elapsedMicros();
    metrics::record(metrics::Histo::kPassScheduleUs, passPhases_.scheduleUs);
  } catch (...) {
    // A pass that threw computed nothing committable: its partial snapshot
    // results must never reach the live requests or be pushed as views.
    // The snapshot's result scratch now diverges from the live requests
    // (no write-back), so its captured epochs must not let the next pass
    // skip re-capture; and the scheduler's pass-to-pass cache describes a
    // pass that never committed, so the next pass must not splice from it.
    passSnapshot_->invalidate();
    scheduler_.invalidateIncremental();
    throw;
  }
  commitPass();
}

void Server::commitPass() {
  {
    trace::Span span("write_back");
    const metrics::Stopwatch watch;
    passSnapshot_->writeBack();
    const std::span<AppSnapshot> scheduled = passSnapshot_->apps();
    for (std::size_t i = 0; i < passApps_.size(); ++i) {
      // Lease renewal: an epoch-clean, all-started application whose views
      // the pass left in its cache keeps the stashed copies — the pass
      // proved they are still exact. Any materialized view means
      // the app's share moved (a dirty neighbour preempted part of it) and
      // the stash is replaced as usual.
      if (scheduled[i].viewsReused) {
        metrics::increment(metrics::Event::kLeasesRenewed);
        continue;
      }
      if (scheduled[i].lastCapture() == CaptureKind::kSkipped &&
          scheduled[i].allStarted()) {
        metrics::increment(metrics::Event::kLeasesPreempted);
      }
      // Stash freshly computed views before starting requests so violation
      // checks and pushes see consistent data.
      passApps_[i]->lastNonPreemptive =
          std::move(scheduled[i].nonPreemptiveView);
      passApps_[i]->lastPreemptive = std::move(scheduled[i].preemptiveView);
    }
    passPhases_.writeBackUs = watch.elapsedMicros();
    metrics::record(metrics::Histo::kPassWriteBackUs,
                    passPhases_.writeBackUs);
  }

  {
    // Push views before start notifications so applications react to
    // starts with fresh availability information (the grant may race a
    // view change; events are delivered in queue order).
    trace::Span span("views");
    const metrics::Stopwatch watch;
    pushViews();
    passPhases_.viewsUs = watch.elapsedMicros();
    metrics::record(metrics::Histo::kPassViewsUs, passPhases_.viewsUs);
  }
  {
    trace::Span span("commit");
    const metrics::Stopwatch watch;
    startDueRequests();
    checkViolations();

    // Pass-commit barrier: the starts journaled above and this marker
    // become durable together, before the executor dispatches any of the
    // commit's notification events — a client never observes a start the
    // journal could lose. This is the only fsync on the pass hot path.
    if (journal_ != nullptr) {
      journalScratch_.clear();
      net::Writer w(journalScratch_);
      w.u8(static_cast<std::uint8_t>(rms::RecordType::kPassCommit));
      w.i64(lastPassAt_);
      journalAppend(journalScratch_);
      journalSyncNow();
      maybeCompactJournal();
    }
    passPhases_.commitUs = watch.elapsedMicros();
    metrics::record(metrics::Histo::kPassCommitUs, passPhases_.commitUs);
  }

  finishPassTiming();
}

void Server::finishPassTiming() {
  const std::uint64_t endNs = metrics::nowNanos();
  const std::uint64_t totalUs = (endNs - passPhases_.startNs) / 1000;
  metrics::record(metrics::Histo::kPassLatencyUs, totalUs);
  trace::span("pass", passPhases_.startNs, endNs);
  if (config_.slowPass <= 0 ||
      totalUs < static_cast<std::uint64_t>(config_.slowPass) * 1000) {
    return;
  }
  COORM_LOG(LogLevel::kWarn, "rms")
      << "slow pass " << passCount_ << " at t=" << lastPassAt_
      << "ms total_us=" << totalUs << " prune_us=" << passPhases_.pruneUs
      << " capture_us=" << passPhases_.captureUs
      << " schedule_us=" << passPhases_.scheduleUs
      << " write_back_us=" << passPhases_.writeBackUs
      << " views_us=" << passPhases_.viewsUs
      << " commit_us=" << passPhases_.commitUs
      << " apps=" << passApps_.size();
}

void Server::startDueRequests() {
  const Time now = executor_.now();
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& st : sessions_) {
      if (st->killed || st->disconnected) continue;
      for (const RequestType type :
           {RequestType::kPreAllocation, RequestType::kNonPreemptible,
            RequestType::kPreemptible}) {
        for (Request* r : setFor(*st, type)) {
          if (r->started() || r->ended()) continue;
          if (r->scheduledAt > now) continue;
          if (tryStart(*st, *r, now)) progress = true;
        }
      }
    }
  }
}

bool Server::tryStart(SessionState& st, Request& r, Time now) {
  // Implicit wrapper PAs start in lockstep with the request they wrap
  // (below); if they started on their own while the wrapped request was
  // still waiting for node IDs, their window would no longer cover it.
  if (r.implicit) return false;

  // NEXT successors wait for their parent to finish; COALLOC children wait
  // for the parent to start (an unstarted implicit wrapper parent is fine:
  // it starts together with us).
  if (r.relatedTo != nullptr) {
    if (r.relatedHow == Relation::kNext && !r.relatedTo->ended()) return false;
    if (r.relatedHow == Relation::kCoAlloc && !r.relatedTo->started() &&
        !r.relatedTo->ended() && !r.relatedTo->implicit) {
      return false;
    }
  }

  // `now` is the commit-level timestamp from startDueRequests: every start
  // in one commit shares one stamp, exactly as under the simulation engine
  // (whose clock is frozen during a pass). Per-request clock reads would
  // let wall-clock stamps straddle a millisecond and split occupation
  // breakpoints that the in-process reference merges.
  if (r.type != RequestType::kPreAllocation) {
    const NodeCount needed =
        r.type == RequestType::kPreemptible ? r.nAlloc : r.nodes;
    const NodeCount have = std::ssize(r.nodeIds);
    if (have > needed) {
      // The application released fewer IDs than the shrink required; trim
      // deterministically from the tail.
      std::vector<NodeId> excess(r.nodeIds.begin() + needed, r.nodeIds.end());
      COORM_LOG(LogLevel::kWarn, "rms")
          << toString(r.id) << " over-inherited; trimming "
          << excess.size() << " nodes";
      releaseIds(st, r, std::move(excess));
    } else if (have < needed) {
      const NodeCount extra = needed - have;
      if (pool_.freeCount(r.cluster) < extra) return false;  // stay pending
      markDirty(st);
      std::vector<NodeId> fresh = pool_.allocate(r.cluster, extra);
      r.nodeIds.insert(r.nodeIds.end(), fresh.begin(), fresh.end());
      for (AllocationObserver* observer : observers_) {
        observer->onAllocationChanged(st.app, r.cluster, extra, r.type, now);
      }
    }
    if (r.type != RequestType::kPreemptible) r.nAlloc = r.nodes;
  }

  markDirty(st);
  r.startedAt = now;
  journalStarted(r);  // durable at the commit-end fsync, before any notify
  if (!isInf(r.duration)) {
    const AppId app = st.app;
    const RequestId id = r.id;
    expiryTimers_[id.value] = executor_.schedule(
        r.plannedEnd(), [this, app, id] { onExpiryTimer(app, id); });
  }

  // Start the implicit wrapper PA together with the request it wraps.
  const auto wit = st.wrapperOf.find(&r);
  if (wit != st.wrapperOf.end() && !wit->second->started()) {
    Request& wrapper = *wit->second;
    wrapper.startedAt = now;
    wrapper.scheduledAt = now;
    wrapper.nAlloc = wrapper.nodes;
    journalStarted(wrapper);
    for (AllocationObserver* observer : observers_) {
      observer->onAllocationChanged(st.app, wrapper.cluster, wrapper.nodes,
                                    wrapper.type, now);
    }
    if (!isInf(wrapper.duration)) {
      const AppId app = st.app;
      const RequestId id = wrapper.id;
      expiryTimers_[id.value] = executor_.schedule(
          wrapper.plannedEnd(), [this, app, id] { onExpiryTimer(app, id); });
    }
  }

  if (r.type == RequestType::kPreAllocation) {
    // Pre-allocations carry no node IDs but occupy capacity: report them
    // so accounting can charge for marked-but-unused resources (§7).
    for (AllocationObserver* observer : observers_) {
      observer->onAllocationChanged(st.app, r.cluster, r.nodes, r.type, now);
    }
  }

  if (tracing()) {
    trace("rms", "start " + r.describe() + " with " +
                     std::to_string(r.nodeIds.size()) + " nodes");
  }
  // Shadow pre-allocations stay invisible to the app; detached sessions
  // get the announcement re-posted at resume.
  if (!r.implicit && st.endpoint != nullptr) {
    r.startNotified = true;
    AppEndpoint* endpoint = st.endpoint;
    const RequestId id = r.id;
    const std::vector<NodeId> ids = r.nodeIds;
    executor_.after(0, [endpoint, id, ids] { endpoint->onStarted(id, ids); });
  }
  return true;
}

void Server::checkViolations() {
  const Time now = executor_.now();
  for (auto& stPtr : sessions_) {
    SessionState& st = *stPtr;
    if (st.killed || st.disconnected) continue;

    bool violating = false;
    for (const ClusterSpec& cluster : scheduler_.machine().clusters) {
      NodeCount held = 0;
      for (const Request* r : st.preemptible) {
        if (r->started() && !r->ended() && r->cluster == cluster.id) {
          held += std::ssize(r->nodeIds);
        }
      }
      if (held > st.lastPreemptive.at(cluster.id, now)) {
        violating = true;
        break;
      }
    }

    if (!violating) {
      Executor::cancel(st.violationTimer);
      st.violationTimer = nullptr;
      continue;
    }
    if (st.violationTimer != nullptr && !st.violationTimer->cancelled) {
      continue;  // already armed
    }
    const AppId app = st.app;
    st.violationTimer =
        executor_.after(config_.violationGrace, [this, app] {
          // Re-check against the views current at fire time: a later pass
          // may have widened the preemptive view since the timer was armed.
          SessionState* session = findSession(app);
          if (session == nullptr || session->killed || session->disconnected) {
            return;
          }
          const Time fireTime = executor_.now();
          for (const ClusterSpec& cluster : scheduler_.machine().clusters) {
            NodeCount held = 0;
            for (const Request* r : session->preemptible) {
              if (r->started() && !r->ended() && r->cluster == cluster.id) {
                held += std::ssize(r->nodeIds);
              }
            }
            if (held > session->lastPreemptive.at(cluster.id, fireTime)) {
              if (tracing()) {
                trace("rms", "killing " + toString(app) +
                                 ": preemptible resources not released");
              }
              killApp(*session);
              return;
            }
          }
          session->violationTimer = nullptr;
        });
  }
}

void Server::pushViews() {
  for (SessionState* stPtr : passApps_) {
    SessionState& st = *stPtr;
    if (st.endpoint == nullptr) continue;  // detached: resume re-pushes
    // lastNonPreemptive/lastPreemptive were refreshed by runPass(); push
    // them if the application has not seen these exact views yet.
    if (st.sentViews != nullptr &&
        st.sentViews->nonPreemptive.sameAs(st.lastNonPreemptive) &&
        st.sentViews->preemptive.sameAs(st.lastPreemptive)) {
      continue;
    }
    // The only copy of the views this push makes: the event and a later
    // RESUME re-push share it.
    st.sentViews = std::make_shared<const ViewPair>(
        ViewPair{st.lastNonPreemptive, st.lastPreemptive});
    if (tracing()) trace("rms", "views -> " + toString(st.app));
    postViews(*st.endpoint, st.sentViews);
  }
}

void Server::postViews(AppEndpoint& endpoint,
                       std::shared_ptr<const ViewPair> views) {
  metrics::increment(metrics::Event::kViewsPushed);
  executor_.after(0, [&endpoint, views = std::move(views)] {
    endpoint.onViews(views->nonPreemptive, views->preemptive);
  });
}

void Server::pruneEnded() {
  for (auto& stPtr : sessions_) {
    SessionState& st = *stPtr;
    // A request can be destroyed once it has ended and nothing references
    // it any more (constraint targets must stay resolvable, and wrapper
    // PAs must outlive the request they wrap).
    std::vector<const Request*> referenced;
    for (const auto& owned : st.owned) {
      if (owned->relatedTo != nullptr) referenced.push_back(owned->relatedTo);
    }
    for (const auto& [np, pa] : st.wrapperOf) {
      referenced.push_back(np);
      referenced.push_back(pa);
    }
    auto isReferenced = [&](const Request* r) {
      return std::find(referenced.begin(), referenced.end(), r) !=
             referenced.end();
    };

    for (auto it = st.owned.begin(); it != st.owned.end();) {
      Request* r = it->get();
      // An end the application has not been told about yet (its endpoint
      // was detached, or the request was replayed from the journal) must
      // survive pruning until a resume re-announces it.
      const bool endPending = !r->implicit && !r->endNotified && !st.killed &&
                              !st.disconnected;
      if (r->ended() && !isReferenced(r) && !endPending) {
        markDirty(st);
        setFor(st, r->type).remove(r->id);
        requestIndex_.erase(r->id.value);
        expiryTimers_.erase(r->id.value);
        it = st.owned.erase(it);
      } else {
        ++it;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Crash safety: journal emit (rms/journal.hpp)
// ---------------------------------------------------------------------------

void Server::journalAppend(const std::vector<std::uint8_t>& payload) {
  journal_->append(payload);
}

void Server::journalSyncNow() {
  if (journal_ != nullptr) journal_->sync();
}

void Server::journalSessionOpen(const SessionState& st) {
  if (journal_ == nullptr) return;
  journalScratch_.clear();
  net::Writer w(journalScratch_);
  w.u8(static_cast<std::uint8_t>(rms::RecordType::kSessionOpen));
  w.i32(st.app.value);
  w.u64(st.token);
  w.u32(static_cast<std::uint32_t>(st.name.size()));
  w.bytes(st.name.data(), st.name.size());
  w.i64(executor_.now());
  journalAppend(journalScratch_);
}

void Server::journalRequest(const SessionState& st, const Request& r,
                            const Request* wrapper, std::uint64_t cookie) {
  if (journal_ == nullptr) return;
  journalScratch_.clear();
  net::Writer w(journalScratch_);
  w.u8(static_cast<std::uint8_t>(rms::RecordType::kRequest));
  w.i32(st.app.value);
  w.i64(r.id.value);
  // The wrapper's constraint fields are recorded post-rewrite (mirror
  // chain resolved), so replay restores them without re-deriving.
  w.i64(wrapper != nullptr ? wrapper->id.value : -1);
  w.u8(wrapper != nullptr ? static_cast<std::uint8_t>(wrapper->relatedHow)
                          : 0);
  w.i64(wrapper != nullptr && wrapper->relatedTo != nullptr
            ? wrapper->relatedTo->id.value
            : -1);
  w.u64(cookie);
  w.i32(r.cluster.value);
  w.i64(r.nodes);
  w.i64(r.duration);
  w.u8(static_cast<std::uint8_t>(r.type));
  w.u8(static_cast<std::uint8_t>(r.relatedHow));
  w.i64(r.relatedTo != nullptr ? r.relatedTo->id.value : -1);
  journalAppend(journalScratch_);
}

void Server::journalStarted(const Request& r) {
  if (journal_ == nullptr) return;
  journalScratch_.clear();
  net::Writer w(journalScratch_);
  w.u8(static_cast<std::uint8_t>(rms::RecordType::kStarted));
  w.i64(r.id.value);
  w.i64(r.startedAt);
  w.i64(r.scheduledAt);
  w.i64(r.nAlloc);
  w.u32(static_cast<std::uint32_t>(r.nodeIds.size()));
  for (const NodeId& id : r.nodeIds) {
    w.i32(id.cluster.value);
    w.i32(id.index);
  }
  journalAppend(journalScratch_);
}

void Server::journalEnded(const Request& r, Time endedAt, Time duration,
                          const std::vector<NodeId>& released) {
  if (journal_ == nullptr) return;
  journalScratch_.clear();
  net::Writer w(journalScratch_);
  w.u8(static_cast<std::uint8_t>(rms::RecordType::kEnded));
  w.i64(r.id.value);
  w.i64(endedAt);
  w.i64(duration);
  w.u32(static_cast<std::uint32_t>(released.size()));
  for (const NodeId& id : released) {
    w.i32(id.cluster.value);
    w.i32(id.index);
  }
  journalAppend(journalScratch_);
}

void Server::journalSessionEvent(rms::RecordType type, AppId app, Time at) {
  if (journal_ == nullptr) return;
  journalScratch_.clear();
  net::Writer w(journalScratch_);
  w.u8(static_cast<std::uint8_t>(type));
  w.i32(app.value);
  w.i64(at);
  journalAppend(journalScratch_);
}

void Server::attachJournal(rms::Journal* journal) {
  journal_ = journal;
  // A journal restored from disk still carries the previous process's
  // record stream; supersede it with one snapshot record so replay cost
  // stays proportional to live state, not history.
  if (journal_ != nullptr && replayedRecords_ > 0) journalSnapshotNow();
}

void Server::journalSnapshotNow() {
  if (journal_ == nullptr) return;
  journal_->compact(encodeSnapshot());
}

void Server::maybeCompactJournal() {
  if (journal_->bytes() > config_.journalCompactBytes) {
    journal_->compact(encodeSnapshot());
  }
}

std::vector<std::uint8_t> Server::encodeSnapshot() {
  std::vector<std::uint8_t> out;
  net::Writer w(out);
  w.u8(static_cast<std::uint8_t>(rms::RecordType::kSnapshot));
  w.i64(executor_.now());
  w.i32(nextAppId_);
  w.i64(nextRequestId_);
  w.i64(lastPassAt_);

  std::uint32_t live = 0;
  for (const auto& st : sessions_) {
    if (!st->killed && !st->disconnected) ++live;
  }
  w.u32(live);
  for (const auto& stPtr : sessions_) {
    const SessionState& st = *stPtr;
    if (st.killed || st.disconnected) continue;
    w.i32(st.app.value);
    w.u64(st.token);
    w.u32(static_cast<std::uint32_t>(st.name.size()));
    w.bytes(st.name.data(), st.name.size());
    w.u32(static_cast<std::uint32_t>(st.owned.size()));
    for (const auto& rp : st.owned) {
      const Request& r = *rp;
      w.i64(r.id.value);
      w.i32(r.cluster.value);
      w.i64(r.nodes);
      w.i64(r.duration);
      w.u8(static_cast<std::uint8_t>(r.type));
      w.u8(static_cast<std::uint8_t>(r.relatedHow));
      w.i64(r.relatedTo != nullptr ? r.relatedTo->id.value : -1);
      w.i64(r.nAlloc);
      w.i64(r.scheduledAt);
      w.u8(r.fixed ? 1 : 0);
      w.i64(r.earliestScheduleAt);
      w.i64(r.startedAt);
      w.i64(r.endedAt);
      w.u8(r.implicit ? 1 : 0);
      w.u8(static_cast<std::uint8_t>((r.startNotified ? 1 : 0) |
                                     (r.expiryNotified ? 2 : 0) |
                                     (r.endNotified ? 4 : 0)));
      w.u32(static_cast<std::uint32_t>(r.nodeIds.size()));
      for (const NodeId& id : r.nodeIds) {
        w.i32(id.cluster.value);
        w.i32(id.index);
      }
    }
    w.u32(static_cast<std::uint32_t>(st.wrapperOf.size()));
    for (const auto& [np, pa] : st.wrapperOf) {
      w.i64(np->id.value);
      w.i64(pa->id.value);
    }
    w.u32(static_cast<std::uint32_t>(st.cookieCache.size()));
    for (const auto& [cookie, id] : st.cookieCache) {
      w.u64(cookie);
      w.i64(id.value);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Crash safety: journal replay
// ---------------------------------------------------------------------------

namespace {

bool replayFail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = "journal replay: " + why;
  return false;
}

/// Request type and relation bytes as the live decoder accepts them
/// (net/wire.cpp); a cast of anything else would be undefined.
bool validEnumBytes(std::uint8_t type, std::uint8_t how) {
  return type <= static_cast<std::uint8_t>(RequestType::kPreemptible) &&
         how <= static_cast<std::uint8_t>(Relation::kNext);
}

/// Claims a replayed allocation node by node, refusing nodes this machine
/// does not have (a journal written under a larger --nodes) and nodes
/// already allocated, including twice within `ids`.
bool claimReplayed(NodePool& pool, std::span<const NodeId> ids,
                   std::string* error) {
  for (const NodeId& nid : ids) {
    if (!pool.contains(nid)) {
      return replayFail(error, "node " + toString(nid) +
                                   " is not on this machine");
    }
    if (!pool.isFree(nid)) {
      return replayFail(error, "node " + toString(nid) + " allocated twice");
    }
    pool.claim(std::span<const NodeId>(&nid, 1));
  }
  return true;
}

std::vector<NodeId> readNodeIds(net::Reader& r) {
  const std::uint32_t n = r.u32();
  std::vector<NodeId> ids;
  if (n > (1u << 20)) {
    r.fail();
    return ids;
  }
  ids.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const ClusterId cluster{r.i32()};
    const std::int32_t index = r.i32();
    ids.push_back(NodeId{cluster, index});
  }
  return ids;
}

}  // namespace

Server::SessionState& Server::restoredSession(AppId app, std::uint64_t token,
                                              std::string name) {
  auto st = std::make_unique<SessionState>();
  st->app = app;
  st->endpoint = nullptr;
  st->token = token;
  st->name = std::move(name);
  st->session.reset(new Session(this, app));
  sessions_.push_back(std::move(st));
  metrics::add(metrics::Gauge::kLiveSessions, 1);
  nextAppId_ = std::max(nextAppId_, app.value + 1);
  return *sessions_.back();
}

bool Server::restoreFromJournal(
    const std::vector<std::vector<std::uint8_t>>& records, Time* lastTime,
    std::string* error) {
  COORM_CHECK(sessions_.empty() && journal_ == nullptr &&
              "restore requires a fresh, journal-less server");
  Time maxTime = 0;
  bool first = true;
  for (const auto& payload : records) {
    if (!replayRecord(payload, first, &maxTime, error)) return false;
    first = false;
    ++replayedRecords_;
    metrics::increment(metrics::Event::kJournalRecordsReplayed);
  }

  bool anyLive = false;
  for (auto& st : sessions_) {
    if (!st->killed && !st->disconnected) {
      // Awaiting RESUME from the moment the old process died (best known
      // as the last journaled timestamp); dropUnresumedBefore() reaps.
      st->detachedAt = maxTime;
      anyLive = true;
    }
  }
  if (lastTime != nullptr) *lastTime = maxTime;
  if (anyLive || lastPassAt_ != kNever) requestReschedule();
  COORM_LOG(LogLevel::kInfo, "rms")
      << "journal replay: " << replayedRecords_ << " record(s), "
      << sessions_.size() << " session(s), clock resumed at " << maxTime;
  return true;
}

bool Server::replayRecord(const std::vector<std::uint8_t>& payload, bool first,
                          Time* lastTime, std::string* error) {
  if (payload.empty()) return replayFail(error, "empty record");
  const auto type = static_cast<rms::RecordType>(payload[0]);
  if (type == rms::RecordType::kSnapshot) {
    if (!first) return replayFail(error, "snapshot record not at log head");
    return replaySnapshot(payload, lastTime, error);
  }
  net::Reader r(std::span<const std::uint8_t>(payload).subspan(1));

  auto lookup = [this](std::int64_t id) -> Request* {
    const auto it = requestIndex_.find(id);
    return it != requestIndex_.end() ? it->second.second : nullptr;
  };
  auto bump = [lastTime](Time at) {
    *lastTime = std::max(*lastTime, at);
  };

  switch (type) {
    case rms::RecordType::kSessionOpen: {
      const AppId app{r.i32()};
      const std::uint64_t token = r.u64();
      const std::uint32_t nameLen = r.u32();
      if (nameLen > (1u << 16)) return replayFail(error, "absurd name length");
      const auto nameBytes = r.bytes(nameLen);
      std::string name(nameBytes.begin(), nameBytes.end());
      const Time at = r.i64();
      if (!r.done()) return replayFail(error, "malformed session-open");
      if (findSession(app) != nullptr) {
        return replayFail(error, "duplicate session " + toString(app));
      }
      restoredSession(app, token, std::move(name));
      bump(at);
      return true;
    }
    case rms::RecordType::kRequest: {
      const AppId app{r.i32()};
      const RequestId id{r.i64()};
      const std::int64_t wrapperId = r.i64();
      const std::uint8_t wrapperHowByte = r.u8();
      const std::int64_t wrapperRelatedTo = r.i64();
      const std::uint64_t cookie = r.u64();
      const ClusterId cluster{r.i32()};
      const NodeCount nodes = r.i64();
      const Time duration = r.i64();
      const std::uint8_t typeByte = r.u8();
      const std::uint8_t howByte = r.u8();
      const std::int64_t relatedTo = r.i64();
      if (!r.done() || !validEnumBytes(typeByte, howByte) ||
          !validEnumBytes(0, wrapperHowByte)) {
        return replayFail(error, "malformed request record");
      }
      // The live path admits only these (Server::handleRequest).
      if (scheduler_.machine().nodesOn(cluster) <= 0) {
        return replayFail(error, "request " + toString(id) + " on unknown " +
                                     toString(cluster));
      }
      if (nodes <= 0 || duration <= 0) {
        return replayFail(error, "request " + toString(id) +
                                     " without nodes or duration");
      }
      const auto wrapperHow = static_cast<Relation>(wrapperHowByte);
      const auto rtype = static_cast<RequestType>(typeByte);
      const auto how = static_cast<Relation>(howByte);
      SessionState* st = findSession(app);
      if (st == nullptr || st->killed || st->disconnected) {
        return replayFail(error, "request for unknown/dead " + toString(app));
      }

      Request* wrapper = nullptr;
      if (wrapperId >= 0) {
        auto wrapped = std::make_unique<Request>();
        wrapped->id = RequestId{wrapperId};
        wrapped->app = app;
        wrapped->cluster = cluster;
        wrapped->nodes = nodes;
        wrapped->duration = duration;
        wrapped->type = RequestType::kPreAllocation;
        wrapped->relatedHow = wrapperHow;
        wrapped->implicit = true;
        if (wrapperRelatedTo >= 0) {
          wrapped->relatedTo = lookup(wrapperRelatedTo);
          if (wrapped->relatedTo == nullptr) {
            return replayFail(error, "wrapper constraint target missing");
          }
        }
        wrapper = wrapped.get();
        st->preAllocations.add(wrapper);
        requestIndex_.emplace(wrapperId, std::make_pair(app, wrapper));
        st->owned.push_back(std::move(wrapped));
        nextRequestId_ = std::max(nextRequestId_, wrapperId + 1);
      }

      auto request = std::make_unique<Request>();
      request->id = id;
      request->app = app;
      request->cluster = cluster;
      request->nodes = nodes;
      request->duration = duration;
      request->type = rtype;
      request->relatedHow = how;
      if (relatedTo >= 0) {
        request->relatedTo = lookup(relatedTo);
        if (request->relatedTo == nullptr) {
          return replayFail(error, "constraint target missing for " +
                                       toString(id));
        }
      }
      Request* raw = request.get();
      setFor(*st, rtype).add(raw);
      requestIndex_.emplace(id.value, std::make_pair(app, raw));
      st->owned.push_back(std::move(request));
      if (wrapper != nullptr) st->wrapperOf.emplace(raw, wrapper);
      if (cookie != 0) {
        if (st->cookieCache.size() >= kCookieCacheCap) {
          st->cookieCache.erase(st->cookieCache.begin());
        }
        st->cookieCache.emplace_back(cookie, id);
      }
      nextRequestId_ = std::max(nextRequestId_, id.value + 1);
      markDirty(*st);
      return true;
    }
    case rms::RecordType::kStarted: {
      const RequestId id{r.i64()};
      const Time startedAt = r.i64();
      const Time scheduledAt = r.i64();
      const NodeCount nAlloc = r.i64();
      const std::vector<NodeId> ids = readNodeIds(r);
      if (!r.done()) return replayFail(error, "malformed started record");
      Request* req = lookup(id.value);
      if (req == nullptr || req->started() || req->ended()) {
        return replayFail(error, "start of unknown/started " + toString(id));
      }
      SessionState* st = findSession(req->app);
      COORM_CHECK(st != nullptr);

      // The record carries the complete post-start allocation; the request
      // may already hold NEXT-inherited IDs. Claim what is new, return what
      // the start trimmed (live tryStart released over-inheritance without
      // its own record).
      std::vector<NodeId> fresh;
      for (const NodeId& nid : ids) {
        if (std::find(req->nodeIds.begin(), req->nodeIds.end(), nid) ==
            req->nodeIds.end()) {
          fresh.push_back(nid);
        }
      }
      std::vector<NodeId> excess;
      for (const NodeId& nid : req->nodeIds) {
        if (std::find(ids.begin(), ids.end(), nid) == ids.end()) {
          excess.push_back(nid);
        }
      }
      if (!claimReplayed(pool_, fresh, error)) return false;
      if (!excess.empty()) pool_.release(excess);
      req->nodeIds = ids;
      req->nAlloc = nAlloc;
      req->scheduledAt = scheduledAt;
      req->startedAt = startedAt;
      if (!isInf(req->duration)) {
        const AppId app = req->app;
        expiryTimers_[id.value] = executor_.schedule(
            req->plannedEnd(), [this, app, id] { onExpiryTimer(app, id); });
      }
      markDirty(*st);
      bump(startedAt);
      return true;
    }
    case rms::RecordType::kEnded: {
      const RequestId id{r.i64()};
      const Time endedAt = r.i64();
      const Time duration = r.i64();
      const std::vector<NodeId> released = readNodeIds(r);
      if (!r.done()) return replayFail(error, "malformed ended record");
      Request* req = lookup(id.value);
      if (req == nullptr || req->ended()) {
        return replayFail(error, "end of unknown/ended " + toString(id));
      }
      SessionState* st = findSession(req->app);
      COORM_CHECK(st != nullptr);
      const auto timer = expiryTimers_.find(id.value);
      if (timer != expiryTimers_.end()) {
        Executor::cancel(timer->second);
        expiryTimers_.erase(timer);
      }

      if (req->started()) {
        // Mirror endRequest: explicit releases back to the pool, the
        // remainder to an unstarted NEXT successor (or the pool).
        std::vector<NodeId> actual;
        for (const NodeId& nid : released) {
          const auto it =
              std::find(req->nodeIds.begin(), req->nodeIds.end(), nid);
          if (it != req->nodeIds.end()) {
            req->nodeIds.erase(it);
            actual.push_back(nid);
          }
        }
        if (!actual.empty()) pool_.release(actual);
        Request* successor = findUnstartedNextChild(*st, *req);
        if (successor != nullptr) {
          successor->nodeIds.insert(successor->nodeIds.end(),
                                    req->nodeIds.begin(), req->nodeIds.end());
        } else if (!req->nodeIds.empty()) {
          pool_.release(req->nodeIds);
        }
        req->nodeIds.clear();
      } else {
        // Mirror cancelUnstarted: inherited stash back, children orphaned.
        if (!req->nodeIds.empty()) {
          pool_.release(req->nodeIds);
          req->nodeIds.clear();
        }
        for (auto& owned : st->owned) {
          if (owned->relatedTo == req) {
            owned->relatedTo = nullptr;
            owned->relatedHow = Relation::kFree;
          }
        }
      }
      req->duration = duration;
      req->endedAt = endedAt;
      // The wrapper's own end arrives as its own record; just unlink.
      st->wrapperOf.erase(req);
      markDirty(*st);
      bump(endedAt);
      return true;
    }
    case rms::RecordType::kSessionClosed:
    case rms::RecordType::kAppKilled: {
      const AppId app{r.i32()};
      const Time at = r.i64();
      if (!r.done()) return replayFail(error, "malformed session event");
      SessionState* st = findSession(app);
      if (st == nullptr || st->killed || st->disconnected) {
        return replayFail(error, "close/kill of unknown/dead " +
                                     toString(app));
      }
      for (auto& owned : st->owned) {
        Request& req = *owned;
        if (req.ended()) continue;
        const auto timer = expiryTimers_.find(req.id.value);
        if (timer != expiryTimers_.end()) {
          Executor::cancel(timer->second);
          expiryTimers_.erase(timer);
        }
        if (!req.nodeIds.empty()) {
          pool_.release(req.nodeIds);
          req.nodeIds.clear();
        }
        req.endedAt = at;
      }
      if (type == rms::RecordType::kAppKilled) {
        st->killed = true;
      } else {
        st->disconnected = true;
      }
      metrics::add(metrics::Gauge::kLiveSessions, -1);
      markDirty(*st);
      bump(at);
      return true;
    }
    case rms::RecordType::kPassCommit: {
      const Time at = r.i64();
      if (!r.done()) return replayFail(error, "malformed pass-commit");
      lastPassAt_ = at;
      bump(at);
      return true;
    }
    case rms::RecordType::kSnapshot:
      break;  // handled above
  }
  return replayFail(error,
                    "unknown record type " + std::to_string(payload[0]));
}

bool Server::replaySnapshot(const std::vector<std::uint8_t>& payload,
                            Time* lastTime, std::string* error) {
  net::Reader r(std::span<const std::uint8_t>(payload).subspan(1));
  const Time savedAt = r.i64();
  nextAppId_ = r.i32();
  nextRequestId_ = r.i64();
  lastPassAt_ = r.i64();
  const std::uint32_t nSessions = r.u32();
  if (!r.ok() || nSessions > (1u << 20)) {
    return replayFail(error, "malformed snapshot header");
  }

  for (std::uint32_t s = 0; s < nSessions; ++s) {
    const AppId app{r.i32()};
    const std::uint64_t token = r.u64();
    const std::uint32_t nameLen = r.u32();
    if (!r.ok() || nameLen > (1u << 16)) {
      return replayFail(error, "malformed snapshot session");
    }
    const auto nameBytes = r.bytes(nameLen);
    std::string name(nameBytes.begin(), nameBytes.end());
    if (findSession(app) != nullptr) {
      return replayFail(error, "duplicate snapshot session");
    }
    SessionState& st = restoredSession(app, token, std::move(name));

    const std::uint32_t nOwned = r.u32();
    if (!r.ok() || nOwned > (1u << 20)) {
      return replayFail(error, "malformed snapshot request count");
    }
    std::vector<std::pair<Request*, std::int64_t>> pendingRelated;
    for (std::uint32_t i = 0; i < nOwned; ++i) {
      auto request = std::make_unique<Request>();
      Request& req = *request;
      req.id = RequestId{r.i64()};
      req.app = app;
      req.cluster = ClusterId{r.i32()};
      req.nodes = r.i64();
      req.duration = r.i64();
      const std::uint8_t typeByte = r.u8();
      const std::uint8_t howByte = r.u8();
      const std::int64_t relatedTo = r.i64();
      req.nAlloc = r.i64();
      req.scheduledAt = r.i64();
      req.fixed = r.u8() != 0;
      req.earliestScheduleAt = r.i64();
      req.startedAt = r.i64();
      req.endedAt = r.i64();
      req.implicit = r.u8() != 0;
      const std::uint8_t notified = r.u8();
      req.startNotified = (notified & 1) != 0;
      req.expiryNotified = (notified & 2) != 0;
      req.endNotified = (notified & 4) != 0;
      req.nodeIds = readNodeIds(r);
      if (!r.ok() || !validEnumBytes(typeByte, howByte)) {
        return replayFail(error, "malformed snapshot request");
      }
      req.type = static_cast<RequestType>(typeByte);
      req.relatedHow = static_cast<Relation>(howByte);
      if (scheduler_.machine().nodesOn(req.cluster) <= 0) {
        return replayFail(error, "snapshot request " + toString(req.id) +
                                     " on unknown " + toString(req.cluster));
      }
      if (!claimReplayed(pool_, req.nodeIds, error)) return false;
      Request* raw = request.get();
      setFor(st, req.type).add(raw);
      requestIndex_.emplace(req.id.value, std::make_pair(app, raw));
      st.owned.push_back(std::move(request));
      if (relatedTo >= 0) pendingRelated.emplace_back(raw, relatedTo);
      if (raw->started() && !raw->ended() && !isInf(raw->duration)) {
        const RequestId id = raw->id;
        expiryTimers_[id.value] = executor_.schedule(
            raw->plannedEnd(), [this, app, id] { onExpiryTimer(app, id); });
      }
    }
    for (auto& [req, targetId] : pendingRelated) {
      const auto it = requestIndex_.find(targetId);
      if (it == requestIndex_.end() || it->second.first != app) {
        return replayFail(error, "snapshot constraint target missing");
      }
      req->relatedTo = it->second.second;
    }

    const std::uint32_t nWrappers = r.u32();
    if (!r.ok() || nWrappers > (1u << 20)) {
      return replayFail(error, "malformed snapshot wrapper count");
    }
    for (std::uint32_t i = 0; i < nWrappers; ++i) {
      const std::int64_t np = r.i64();
      const std::int64_t pa = r.i64();
      const auto npIt = requestIndex_.find(np);
      const auto paIt = requestIndex_.find(pa);
      if (npIt == requestIndex_.end() || paIt == requestIndex_.end()) {
        return replayFail(error, "snapshot wrapper pair missing");
      }
      st.wrapperOf.emplace(npIt->second.second, paIt->second.second);
    }

    const std::uint32_t nCookies = r.u32();
    if (!r.ok() || nCookies > kCookieCacheCap) {
      return replayFail(error, "malformed snapshot cookie count");
    }
    for (std::uint32_t i = 0; i < nCookies; ++i) {
      const std::uint64_t cookie = r.u64();
      const RequestId id{r.i64()};
      st.cookieCache.emplace_back(cookie, id);
    }
    markDirty(st);
  }
  if (!r.done()) return replayFail(error, "snapshot record has trailing data");
  *lastTime = std::max(*lastTime, savedAt);
  return true;
}

// ---------------------------------------------------------------------------
// Reconnect: resume / detach / reap
// ---------------------------------------------------------------------------

std::uint64_t Server::sessionToken(AppId app) {
  SessionState* st = findSession(app);
  return st != nullptr ? st->token : 0;
}

void Server::detachEndpoint(AppId app) {
  SessionState* st = findSession(app);
  if (st == nullptr || st->killed || st->disconnected ||
      st->endpoint == nullptr) {
    return;
  }
  st->endpoint = nullptr;
  st->detachedAt = executor_.now();
  if (tracing()) trace(toString(app), "detach (awaiting resume)");
}

void Server::dropUnresumedBefore(Time cutoff) {
  std::vector<AppId> doomed;
  for (const auto& st : sessions_) {
    if (st->killed || st->disconnected || st->endpoint != nullptr) continue;
    if (st->detachedAt != kNever && st->detachedAt <= cutoff) {
      doomed.push_back(st->app);
    }
  }
  for (AppId app : doomed) {
    SessionState* st = findSession(app);
    if (st == nullptr) continue;
    if (tracing()) trace(toString(app), "never resumed; disconnecting");
    handleDisconnect(*st);
  }
}

Session* Server::resumeSession(AppId app, std::uint64_t token,
                               AppEndpoint& endpoint) {
  SessionState* st = findSession(app);
  if (st == nullptr || st->killed || st->disconnected ||
      st->token != token) {
    return nullptr;
  }
  st->endpoint = &endpoint;
  st->detachedAt = kNever;
  metrics::increment(metrics::Event::kSessionsResumed);
  metrics::increment(metrics::Event::kReconnects);
  if (tracing()) trace(toString(app), "resume");

  // Re-push the views the application last held; if they changed while it
  // was detached, the next pass pushes the fresh ones (pushViews skipped
  // detached sessions without marking anything sent).
  if (st->sentViews != nullptr) postViews(endpoint, st->sentViews);

  // Re-announce anything that happened while no endpoint was attached
  // (including everything replayed from a journal, whose delivery flags
  // are conservatively cleared): at-least-once, the client dedups by id.
  const Time now = executor_.now();
  for (const auto& rp : st->owned) {
    Request& r = *rp;
    if (r.implicit) continue;
    if (r.started() && !r.startNotified) {
      r.startNotified = true;
      const RequestId id = r.id;
      const std::vector<NodeId> ids = r.nodeIds;
      executor_.after(0,
                      [&endpoint, id, ids] { endpoint.onStarted(id, ids); });
    }
    if (r.started() && !r.ended() && !r.expiryNotified &&
        r.type != RequestType::kPreAllocation && !isInf(r.duration) &&
        r.plannedEnd() <= now &&
        expiryTimers_.find(r.id.value) == expiryTimers_.end()) {
      // Expired while detached (the timer fired into a void): re-announce;
      // the violation backstop armed at fire time still stands.
      r.expiryNotified = true;
      const RequestId id = r.id;
      executor_.after(0, [&endpoint, id] { endpoint.onExpired(id); });
    }
    if (r.ended() && !r.endNotified) {
      r.endNotified = true;
      const RequestId id = r.id;
      executor_.after(0, [&endpoint, id] { endpoint.onEnded(id); });
    }
  }
  return st->session.get();
}

}  // namespace coorm
