// Serving tests: the session state machine over in-memory streams, the
// deterministic simulated-client serve loop, client-paced paging, cancel,
// per-session quotas, timeouts, graceful drain, and byte-identical
// trace replay per seed.

#include "server/serve_loop.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "base/fault_injection.h"
#include "iql/eval.h"
#include "iql/parser.h"
#include "model/universe.h"
#include "server/scheduler.h"
#include "server/session.h"
#include "server/wire.h"

namespace iqlkit {
namespace server {
namespace {

constexpr char kTcSource[] = R"(
schema {
  relation E  : [D, D];
  relation TC : [D, D];
}
input E;
output TC;
instance {
  E(1, 2);
  E(2, 3);
  E(3, 4);
}
program {
  TC(x, y) :- E(x, y).
  TC(x, z) :- TC(x, y), E(y, z).
}
)";

constexpr char kBadSource[] = "schema { this is not IQL ";

SchedulerOptions DetScheduler(uint64_t seed = 0) {
  SchedulerOptions options;
  options.deterministic = true;
  options.seed = seed;
  return options;
}

// A hand-driven client end of a MemoryDuplex for session-level tests.
struct TestClient {
  explicit TestClient(MemoryDuplex* duplex)
      : stream(duplex, /*server_side=*/false) {}

  void Send(const Frame& frame) {
    ASSERT_TRUE(stream.Write(EncodeFrame(frame)).ok());
  }
  void SendHello() {
    Frame hello;
    hello.type = FrameType::kHello;
    hello.body.SetInt("version", kWireVersion).SetString("tenant", "test");
    Send(hello);
  }
  void SendQuery(const std::string& id, const std::string& source) {
    Frame query;
    query.type = FrameType::kQuery;
    query.body.SetString("id", id).SetString("source", source);
    Send(query);
  }
  void SendWant(const std::string& id, int64_t want) {
    Frame page;
    page.type = FrameType::kPage;
    page.body.SetString("id", id).SetInt("want", want);
    Send(page);
  }

  std::vector<Frame> Drain() {
    std::vector<Frame> frames;
    for (;;) {
      std::string chunk;
      auto got = stream.Read(&chunk, 1 << 16);
      if (!got.ok() || *got == 0) break;
      decoder.Feed(chunk);
    }
    for (;;) {
      auto next = decoder.Next();
      if (!next.ok() || !next->has_value()) break;
      frames.push_back(std::move(**next));
    }
    return frames;
  }

  MemoryStream stream;
  FrameDecoder decoder;
};

class SessionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(SessionTest, HandshakeThenQueryThenPagedResult) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.page_rows = 2;  // force multiple pages
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);

  client.SendHello();
  ASSERT_TRUE(session.Pump(0));
  auto frames = client.Drain();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[0].body.GetInt("version").value(), kWireVersion);
  EXPECT_EQ(frames[0].body.GetInt("session").value(), 1);
  EXPECT_EQ(frames[0].body.GetInt("page_rows").value(), 2);

  client.SendQuery("q1", kTcSource);
  client.SendWant("q1", 0);
  ASSERT_TRUE(session.Pump(1));
  scheduler.RunUntilIdle();
  ASSERT_TRUE(session.Pump(2));

  // Page 0 arrives; request pages one at a time until done.
  std::string data;
  bool done = false;
  std::string outcome;
  for (int round = 0; round < 64 && !done; ++round) {
    for (const Frame& frame : client.Drain()) {
      ASSERT_EQ(frame.type, FrameType::kPage);
      data += frame.body.StringOr("data", "");
      if (frame.body.GetBool("done").value()) {
        done = true;
        outcome = frame.body.GetString("outcome").value();
      } else {
        client.SendWant("q1", frame.body.GetInt("seq").value() + 1);
      }
    }
    session.Pump(3 + round);
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(outcome, "completed");
  EXPECT_NE(data.find("TC("), std::string::npos);
  EXPECT_EQ(session.counters().delivered_completed, 1u);
  EXPECT_EQ(session.live_queries(), 0u);

  // The paged bytes are exactly a standalone evaluation's facts.
  Scheduler standalone(DetScheduler());
  QueryRequest request;
  request.id = "ref";
  request.source = kTcSource;
  auto ticket = standalone.Submit(std::move(request));
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(data, standalone.Wait(*ticket).facts);
}

TEST_F(SessionTest, VersionMismatchIsRefusedBeforeAnyQuery) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  Session session(1, &server_end, &scheduler, SessionOptions{}, nullptr);
  TestClient client(&duplex);
  Frame hello;
  hello.type = FrameType::kHello;
  hello.body.SetInt("version", 99);
  client.Send(hello);
  EXPECT_FALSE(session.Pump(0));
  EXPECT_EQ(session.close_reason(), SessionClose::kProtocolError);
  auto frames = client.Drain();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_EQ(frames[0].body.GetString("code").value(), "NETWORK_ERROR");
}

TEST_F(SessionTest, QueryBeforeHelloIsAProtocolError) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  Session session(1, &server_end, &scheduler, SessionOptions{}, nullptr);
  TestClient client(&duplex);
  client.SendQuery("q", kTcSource);
  EXPECT_FALSE(session.Pump(0));
  EXPECT_EQ(session.close_reason(), SessionClose::kProtocolError);
}

TEST_F(SessionTest, FailedQueryDeliversTerminalPageWithStatus) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  Session session(1, &server_end, &scheduler, SessionOptions{}, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  session.Pump(0);
  client.Drain();
  client.SendQuery("bad", kBadSource);
  client.SendWant("bad", 0);
  session.Pump(1);
  scheduler.RunUntilIdle();
  session.Pump(2);
  auto frames = client.Drain();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kPage);
  EXPECT_TRUE(frames[0].body.GetBool("done").value());
  EXPECT_EQ(frames[0].body.GetString("outcome").value(), "failed");
  EXPECT_FALSE(frames[0].body.GetString("status").value().empty());
  EXPECT_EQ(session.counters().delivered_failed, 1u);
}

TEST_F(SessionTest, InflightQuotaRejectsLocally) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.max_inflight = 1;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  session.Pump(0);
  client.Drain();
  client.SendQuery("a", kTcSource);
  client.SendQuery("b", kTcSource);  // over quota
  client.SendQuery("a", kTcSource);  // duplicate id
  session.Pump(1);
  auto frames = client.Drain();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_EQ(frames[0].body.GetString("code").value(), "OVERLOAD");
  EXPECT_EQ(frames[0].body.GetString("id").value(), "b");
  EXPECT_EQ(frames[1].type, FrameType::kError);
  EXPECT_EQ(frames[1].body.GetString("code").value(), "ALREADY_EXISTS");
  EXPECT_EQ(session.counters().queries_accepted, 1u);
  EXPECT_EQ(session.counters().queries_rejected, 2u);
  // The session's rejects never reached scheduler admission.
  EXPECT_EQ(scheduler.counters().submitted, 1u);
}

TEST_F(SessionTest, CancelPushesATerminalPageUnasked) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  Session session(1, &server_end, &scheduler, SessionOptions{}, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  session.Pump(0);
  client.Drain();
  client.SendQuery("q", kTcSource);
  session.Pump(1);  // admitted (queued; deterministic mode has not run it)
  Frame cancel;
  cancel.type = FrameType::kCancel;
  cancel.body.SetString("id", "q");
  client.Send(cancel);
  session.Pump(2);
  scheduler.RunUntilIdle();
  session.Pump(3);
  auto frames = client.Drain();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kPage);
  EXPECT_TRUE(frames[0].body.GetBool("done").value());
  EXPECT_EQ(frames[0].body.GetString("outcome").value(), "cancelled");
  EXPECT_EQ(session.counters().delivered_cancelled, 1u);
  EXPECT_EQ(scheduler.counters().cancelled, 1u);
}

TEST_F(SessionTest, IdleTimeoutClosesTheSession) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.idle_timeout_ms = 100;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  ASSERT_TRUE(session.Pump(0));
  ASSERT_TRUE(session.Pump(99));
  EXPECT_FALSE(session.Pump(100));
  EXPECT_EQ(session.close_reason(), SessionClose::kIdleTimeout);
}

TEST_F(SessionTest, HeartbeatsKeepAnIdleSessionAlive) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.idle_timeout_ms = 100;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  ASSERT_TRUE(session.Pump(0));
  for (uint64_t t = 80; t <= 400; t += 80) {
    Frame ping;
    ping.type = FrameType::kHello;
    ping.body.SetBool("ping", true);
    client.Send(ping);
    ASSERT_TRUE(session.Pump(t)) << "t=" << t;
  }
  EXPECT_EQ(session.counters().heartbeats, 5u);
  // Pongs came back alongside the HELLO ack.
  EXPECT_GE(client.Drain().size(), 6u);
}

TEST_F(SessionTest, TornFrameHitsTheReadTimeout) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.read_timeout_ms = 50;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  std::string frame = EncodeFrame([] {
    Frame hello;
    hello.type = FrameType::kHello;
    hello.body.SetInt("version", kWireVersion);
    return hello;
  }());
  // Only half the frame ever arrives.
  ASSERT_TRUE(client.stream.Write(frame.substr(0, frame.size() / 2)).ok());
  ASSERT_TRUE(session.Pump(0));
  ASSERT_TRUE(session.Pump(49));
  EXPECT_FALSE(session.Pump(50));
  EXPECT_EQ(session.close_reason(), SessionClose::kReadTimeout);
}

TEST_F(SessionTest, SlowClientHitsTheWriteTimeout) {
  Scheduler scheduler(DetScheduler());
  // A tiny outbound pipe the "client" never drains: the HELLO ack fits,
  // result pages do not. The inbound direction stays roomy.
  MemoryDuplex duplex(/*c2s_capacity=*/1 << 20, /*s2c_capacity=*/160);
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.write_timeout_ms = 50;
  options.page_rows = 1024;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  ASSERT_TRUE(session.Pump(0));
  client.Drain();  // take the ack, then stop draining
  client.SendQuery("q", kTcSource);
  client.SendWant("q", 0);
  ASSERT_TRUE(session.Pump(1));
  scheduler.RunUntilIdle();
  ASSERT_TRUE(session.Pump(2));  // page stalls against the full pipe
  ASSERT_TRUE(session.Pump(51));
  EXPECT_FALSE(session.Pump(52));
  EXPECT_EQ(session.close_reason(), SessionClose::kWriteTimeout);
  // The undelivered query was cancelled in the scheduler, not leaked.
  EXPECT_EQ(session.counters().abandoned, 1u);
}

TEST_F(SessionTest, PeerDisappearingAbandonsAndCancels) {
  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  Session session(1, &server_end, &scheduler, SessionOptions{}, nullptr);
  TestClient client(&duplex);
  client.SendHello();
  session.Pump(0);
  client.Drain();
  client.SendQuery("q", kTcSource);
  session.Pump(1);
  client.stream.Close();
  EXPECT_FALSE(session.Pump(2));
  EXPECT_EQ(session.close_reason(), SessionClose::kPeerClosed);
  EXPECT_EQ(session.counters().abandoned, 1u);
  scheduler.RunUntilIdle();
  auto c = scheduler.counters();
  EXPECT_EQ(c.admitted, c.completed + c.tripped_partial + c.failed +
                            c.cancelled);
}

// Pages wire id `id` (already submitted) out to its terminal PAGE,
// asking for one page at a time, and returns each PAGE frame re-encoded.
std::vector<std::string> PageOut(Session* session, Scheduler* scheduler,
                                 TestClient* client, const std::string& id,
                                 uint64_t* now) {
  std::vector<std::string> pages;
  client->SendWant(id, 0);
  for (int round = 0; round < 64; ++round) {
    session->Pump((*now)++);
    scheduler->RunUntilIdle();
    session->Pump((*now)++);
    for (const Frame& frame : client->Drain()) {
      if (frame.type != FrameType::kPage) {
        ADD_FAILURE() << "'" << id << "' answered with a non-PAGE frame: "
                      << frame.body.StringOr("code", "") << " "
                      << frame.body.StringOr("message", "");
        return pages;
      }
      pages.push_back(EncodeFrame(frame));
      if (frame.body.BoolOr("done", false)) return pages;
      client->SendWant(id, frame.body.GetInt("seq").value() + 1);
    }
  }
  ADD_FAILURE() << "no terminal PAGE for '" << id << "'";
  return pages;
}

// The `data` of every PAGE in `pages` (as PageOut returns them), in order.
std::string PagedData(const std::vector<std::string>& pages) {
  FrameDecoder decoder;
  for (const std::string& page : pages) decoder.Feed(page);
  std::string data;
  for (;;) {
    auto next = decoder.Next();
    if (!next.ok() || !next->has_value()) break;
    data += (**next).body.StringOr("data", "");
  }
  return data;
}

// The serve path evaluates with the default engine, the register VM. Its
// paged answer must be byte-identical to a standalone run of the same unit
// on the tree-walker, the reference engine.
TEST_F(SessionTest, ServedTcMatchesStandaloneTreeWalker) {
  std::string source =
      "schema { relation E : [D, D]; relation TC : [D, D]; }\n"
      "input E;\noutput TC;\ninstance {\n";
  for (int i = 0; i < 12; ++i) {
    source += "  E(" + std::to_string(i) + ", " + std::to_string(i + 1) +
              ");\n  E(" + std::to_string(i) + ", " +
              std::to_string((i * 5) % 13) + ");\n";
  }
  source +=
      "}\nprogram {\n"
      "  TC(x, y) :- E(x, y).\n"
      "  TC(x, z) :- TC(x, y), E(y, z).\n"
      "}\n";

  Universe u;
  auto unit = ParseUnit(&u, source);
  ASSERT_TRUE(unit.ok()) << unit.status();
  Instance input(&unit->schema, &u);
  ASSERT_TRUE(ApplyFacts(*unit, &input).ok());
  EvalOptions tree;
  tree.engine = EvalOptions::Engine::kTreeWalk;
  tree.num_threads = 1;
  auto reference = RunUnit(&u, &*unit, input, tree);
  ASSERT_TRUE(reference.ok()) << reference.status();

  Scheduler scheduler(DetScheduler());
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.page_rows = 16;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  uint64_t now = 0;
  client.SendHello();
  session.Pump(now++);
  client.Drain();
  client.SendQuery("tc", source);
  std::vector<std::string> pages =
      PageOut(&session, &scheduler, &client, "tc", &now);
  ASSERT_GT(pages.size(), 2u);
  EXPECT_NE(pages.back().find("completed"), std::string::npos);
  EXPECT_EQ(PagedData(pages), WriteFacts(*reference));
}

// A wire id is taken only while its query is in flight: once the terminal
// PAGE is delivered, the session and the scheduler have both forgotten it,
// and the same QUERY is answered again byte for byte. With a data dir the
// second answer comes from the first run's final snapshot.
void ExpectWireIdReusableAfterDone(const std::string& data_dir) {
  std::ostringstream trace;
  SchedulerOptions sched = DetScheduler();
  sched.data_dir = data_dir;
  sched.trace = &trace;
  Scheduler scheduler(sched);
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.page_rows = 2;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  uint64_t now = 0;
  client.SendHello();
  session.Pump(now++);
  client.Drain();

  client.SendQuery("q", kTcSource);
  client.SendQuery("q", kTcSource);  // in flight: still a duplicate
  session.Pump(now++);
  auto frames = client.Drain();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kError);
  EXPECT_EQ(frames[0].body.GetString("code").value(), "ALREADY_EXISTS");
  std::vector<std::string> first =
      PageOut(&session, &scheduler, &client, "q", &now);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(session.live_queries(), 0u);
  EXPECT_EQ(scheduler.retained(), 0u);

  client.SendQuery("q", kTcSource);
  std::vector<std::string> second =
      PageOut(&session, &scheduler, &client, "q", &now);
  EXPECT_EQ(second, first);
  EXPECT_EQ(session.counters().delivered_completed, 2u);
  EXPECT_EQ(session.counters().queries_rejected, 1u);
  EXPECT_EQ(scheduler.retained(), 0u);
  bool resumed = trace.str().find("RESUME id=s1:q") != std::string::npos;
  EXPECT_EQ(resumed, !data_dir.empty()) << trace.str();
}

TEST_F(SessionTest, WireIdReusedAfterDoneInMemory) {
  ExpectWireIdReusableAfterDone("");
}

TEST_F(SessionTest, WireIdReusedAfterDoneWithDataDir) {
  std::string dir = ::testing::TempDir() + "/iqlkit_session_reuse";
  std::filesystem::remove_all(dir);
  ExpectWireIdReusableAfterDone(dir);
  std::filesystem::remove_all(dir);
}

// Sends each (source, max_steps) in turn as QUERY "q" on one session and
// pages it out before sending the next; returns the PAGE frames of each.
std::vector<std::vector<std::string>> ServeInTurn(
    const std::string& data_dir,
    const std::vector<std::pair<std::string, int64_t>>& queries) {
  SchedulerOptions sched = DetScheduler();
  sched.data_dir = data_dir;
  Scheduler scheduler(sched);
  MemoryDuplex duplex;
  MemoryStream server_end(&duplex, /*server_side=*/true);
  SessionOptions options;
  options.page_rows = 2;
  Session session(1, &server_end, &scheduler, options, nullptr);
  TestClient client(&duplex);
  uint64_t now = 0;
  client.SendHello();
  session.Pump(now++);
  client.Drain();
  std::vector<std::vector<std::string>> answers;
  for (const auto& [source, max_steps] : queries) {
    Frame query;
    query.type = FrameType::kQuery;
    query.body.SetString("id", "q").SetString("source", source);
    if (max_steps > 0) query.body.SetInt("max_steps", max_steps);
    client.Send(query);
    answers.push_back(PageOut(&session, &scheduler, &client, "q", &now));
  }
  EXPECT_EQ(scheduler.retained(), 0u);
  return answers;
}

// A reused wire id may carry a different instance. With a data dir it must
// neither resume from the earlier query's partial nor be served from the
// earlier query's final snapshot: each answer matches a fresh in-memory run
// of the same source. (The tripped answer is not compared: its status
// carries the elapsed time.)
TEST_F(SessionTest, WireIdReusedWithNewInstanceWithDataDir) {
  std::string longer = kTcSource;
  longer.replace(longer.find("E(3, 4);"), 8, "E(3, 4);\n  E(4, 5);");
  std::string dir = ::testing::TempDir() + "/iqlkit_session_reuse_new";
  std::filesystem::remove_all(dir);
  auto served = ServeInTurn(
      dir, {{kTcSource, 1}, {longer, 0}, {kTcSource, 0}, {longer, 0}});
  std::filesystem::remove_all(dir);
  auto fresh = ServeInTurn("", {{kTcSource, 1}, {longer, 0}, {kTcSource, 0}});
  ASSERT_EQ(served.size(), 4u);
  ASSERT_EQ(fresh.size(), 3u);
  ASSERT_FALSE(served[0].empty());
  EXPECT_NE(served[0].back().find("tripped-partial"), std::string::npos);
  EXPECT_EQ(served[1], fresh[1]);
  EXPECT_EQ(served[2], fresh[2]);
  EXPECT_EQ(served[3], fresh[1]);
  EXPECT_NE(served[1], served[2]);
}

// ---- simulated serve loop --------------------------------------------------

std::vector<SimClientSpec> TwoClientSpecs() {
  std::vector<SimClientSpec> specs(2);
  specs[0].tenant = "alpha";
  specs[1].tenant = "beta";
  for (int q = 0; q < 3; ++q) {
    SimQuery query;
    query.id = "q" + std::to_string(q);
    query.source = kTcSource;
    query.at_ms = static_cast<uint64_t>(q);
    specs[0].queries.push_back(query);
    specs[1].queries.push_back(query);
  }
  return specs;
}

TEST_F(SessionTest, SimulatedClientsCompleteEverything) {
  Scheduler scheduler(DetScheduler(11));
  ServeOptions options;
  auto outcome = ServeSimulated(&scheduler, options, TwoClientSpecs(),
                                /*drain_at_ms=*/0, /*max_ms=*/5000);
  ASSERT_EQ(outcome.clients.size(), 2u);
  for (const auto& client : outcome.clients) {
    ASSERT_EQ(client.terminal.size(), 3u);
    for (const auto& [id, verdict] : client.terminal) {
      EXPECT_EQ(verdict, "outcome:completed") << id;
    }
  }
  EXPECT_EQ(outcome.stats.totals.delivered_completed, 6u);
  EXPECT_EQ(outcome.stats.totals.abandoned, 0u);
  // Both clients paged back byte-identical facts for the same query.
  EXPECT_EQ(outcome.clients[0].data.at("q0"), outcome.clients[1].data.at("q0"));
}

TEST_F(SessionTest, DrainMidStreamDeliversOrRejectsEverything) {
  Scheduler scheduler(DetScheduler(13));
  ServeOptions options;
  std::vector<SimClientSpec> specs(2);
  for (int c = 0; c < 2; ++c) {
    specs[c].tenant = "t" + std::to_string(c);
    for (int q = 0; q < 4; ++q) {
      SimQuery query;
      query.id = "q" + std::to_string(q);
      query.source = kTcSource;
      query.at_ms = static_cast<uint64_t>(q * 2);  // straddle the drain
      specs[c].queries.push_back(query);
    }
  }
  auto outcome = ServeSimulated(&scheduler, options, specs,
                                /*drain_at_ms=*/3, /*max_ms=*/5000);
  auto c = scheduler.counters();
  EXPECT_EQ(c.admitted,
            c.completed + c.tripped_partial + c.failed + c.cancelled);
  const auto& totals = outcome.stats.totals;
  EXPECT_EQ(totals.queries_accepted,
            totals.delivered_completed + totals.delivered_tripped +
                totals.delivered_cancelled + totals.delivered_failed +
                totals.abandoned);
  // Every client observed the drain and every pre-drain query got a
  // terminal verdict; post-drain submissions never happen (the sim client
  // stops submitting once DRAIN arrives).
  for (const auto& client : outcome.clients) {
    EXPECT_TRUE(client.drained);
    for (const auto& [id, verdict] : client.terminal) {
      EXPECT_TRUE(verdict.rfind("outcome:", 0) == 0 ||
                  verdict.rfind("error:", 0) == 0)
          << id << " -> " << verdict;
    }
  }
}

std::string RunTracedSim(uint64_t seed, const std::string& faults) {
  if (!faults.empty()) {
    auto config = FaultInjector::ParseSpec(faults);
    EXPECT_TRUE(config.ok());
    FaultInjector::Global().Configure(*config);
  }
  std::ostringstream trace;
  SchedulerOptions sched = DetScheduler(seed);
  sched.trace = &trace;
  Scheduler scheduler(sched);
  ServeOptions options;
  options.trace = &trace;
  ServeSimulated(&scheduler, options, TwoClientSpecs(), /*drain_at_ms=*/4,
                 /*max_ms=*/5000);
  FaultInjector::Global().Reset();
  return trace.str();
}

TEST_F(SessionTest, SimulatedTracesAreByteIdenticalPerSeed) {
  std::string first = RunTracedSim(42, "");
  std::string second = RunTracedSim(42, "");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // ...including under injected network faults...
  std::string faulty1 = RunTracedSim(42, "network=0.05,seed=9");
  std::string faulty2 = RunTracedSim(42, "network=0.05,seed=9");
  EXPECT_EQ(faulty1, faulty2);
  // ...and a different fault seed really changes the transcript.
  std::string other = RunTracedSim(42, "network=0.05,seed=10");
  EXPECT_NE(faulty1, other);
}

TEST_F(SessionTest, RefusedAcceptsAreDeterministicAndReported) {
  auto config = FaultInjector::ParseSpec("network=1.0,seed=2");
  ASSERT_TRUE(config.ok());
  FaultInjector::Global().Configure(*config);
  Scheduler scheduler(DetScheduler());
  ServeOptions options;
  auto outcome = ServeSimulated(&scheduler, options, TwoClientSpecs(),
                                /*drain_at_ms=*/0, /*max_ms=*/200);
  // p=1.0: every accept draw refuses.
  EXPECT_EQ(outcome.stats.sessions_refused, 2u);
  EXPECT_EQ(outcome.stats.sessions_accepted, 0u);
  EXPECT_TRUE(outcome.clients[0].refused);
  EXPECT_TRUE(outcome.clients[1].refused);
  EXPECT_EQ(scheduler.counters().submitted, 0u);
}

}  // namespace
}  // namespace server
}  // namespace iqlkit
