#include "coorm/sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "coorm/rms/server.hpp"
#include "coorm/sim/engine.hpp"

namespace coorm {
namespace {

TEST(Trace, RecordsEntriesInOrder) {
  Trace trace;
  EXPECT_TRUE(trace.empty());
  trace.record(sec(1), "app0", "request");
  trace.record(sec(2), "rms", "start");
  ASSERT_EQ(trace.entries().size(), 2u);
  EXPECT_EQ(trace.entries()[0].actor, "app0");
  EXPECT_EQ(trace.entries()[1].what, "start");
}

TEST(Trace, Contains) {
  Trace trace;
  trace.record(0, "rms", "views -> app0");
  EXPECT_TRUE(trace.contains("views"));
  EXPECT_FALSE(trace.contains("kill"));
}

TEST(Trace, DumpFormatsSeconds) {
  Trace trace;
  trace.record(sec(90), "rms", "start req1");
  std::ostringstream out;
  trace.dump(out);
  EXPECT_NE(out.str().find("90"), std::string::npos);
  EXPECT_NE(out.str().find("start req1"), std::string::npos);
}

TEST(Trace, Clear) {
  Trace trace;
  trace.record(0, "a", "b");
  trace.clear();
  EXPECT_TRUE(trace.empty());
}

// The server builds its trace messages only while something records them;
// with a Trace attached, every kind of operation still lands in it.
TEST(Trace, ServerRecordsEveryOperationWhenAttached) {
  struct App : AppEndpoint {
    void onExpired(RequestId id) override { session->done(id); }
    Session* session = nullptr;
  };
  Engine engine;
  Server server(engine, Machine::single(8));
  Trace trace;
  server.setTrace(&trace);

  App app, resumed;
  Session* s = server.connect(app);
  app.session = s;
  engine.runUntil(sec(1));
  RequestSpec spec;
  spec.cluster = ClusterId{0};
  spec.nodes = 2;
  spec.duration = sec(5);
  spec.type = RequestType::kNonPreemptible;
  s->request(spec);
  engine.runUntil(sec(20));
  server.detachEndpoint(s->app());
  ASSERT_EQ(server.resumeSession(s->app(), server.sessionToken(s->app()),
                                 resumed),
            s);
  s->disconnect();

  for (const char* what :
       {"connect", "request ", "views -> ", "start ", "expiry of ", "done ",
        "detach", "resume", "disconnect"}) {
    EXPECT_TRUE(trace.contains(what)) << what;
  }
}

}  // namespace
}  // namespace coorm
