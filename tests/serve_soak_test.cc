// Drain-under-load serving soak (the robustness acceptance test for the
// wire tier): many clients streaming paged results over in-memory
// connections while a graceful drain lands mid-stream, under seeded
// FaultSite::kNetwork injection (torn writes, disconnects, stalls,
// refused accepts), across seeds x scheduler worker counts {1, 2, 8}.
//
// The invariants, checked after every run:
//   - every query the scheduler admitted is in exactly one terminal
//     bucket: completed + tripped + failed + cancelled == admitted;
//   - every query a session accepted is either delivered (one terminal
//     PAGE hit the wire) or abandoned (its session died and the query was
//     abandoned in the scheduler): delivered + abandoned == accepted;
//   - once the scheduler is idle it retains nothing: every delivered
//     result was handed over and every abandoned query was forgotten;
//   - the serve loop never crashes, hangs, or leaks a session.
//
// Run under TSan in CI (the server-soak job) to sweep the real-mode
// scheduler/session interleavings for data races.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "base/fault_injection.h"
#include "server/scheduler.h"
#include "server/serve_loop.h"

namespace iqlkit {
namespace server {
namespace {

constexpr const char* kTransitiveClosure = R"(
  schema { relation E : [D, D]; relation TC : [D, D]; }
  instance {
    E(["a", "b"]); E(["b", "c"]); E(["c", "d"]); E(["d", "e"]);
    E(["e", "f"]); E(["f", "g"]); E(["g", "h"]); E(["h", "i"]);
  }
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
  }
)";

class ServeSoakTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

std::vector<uint64_t> SoakSeeds() {
  int n = 3;
  if (const char* env = std::getenv("IQLKIT_SOAK_SEEDS")) {
    n = std::atoi(env);
    if (n < 1) n = 1;
  }
  std::vector<uint64_t> seeds;
  for (int i = 0; i < n; ++i) seeds.push_back(1000 + 17 * i);
  return seeds;
}

std::vector<SimClientSpec> SoakSpecs(size_t clients, size_t queries_each) {
  std::vector<SimClientSpec> specs(clients);
  for (size_t c = 0; c < clients; ++c) {
    specs[c].tenant = "tenant-" + std::to_string(c);
    for (size_t q = 0; q < queries_each; ++q) {
      SimQuery query;
      query.id = "q" + std::to_string(q);
      query.source = kTransitiveClosure;
      query.at_ms = q;  // spread submissions across the drain point
      if ((c + q) % 5 == 0) query.cancel_at_ms = q + 2;
      specs[c].queries.push_back(std::move(query));
    }
  }
  // One client disconnects abruptly mid-run: its in-flight queries must
  // be abandoned-and-cancelled, never leaked.
  specs[clients - 1].disconnect_at_ms = queries_each / 2 + 1;
  return specs;
}

void CheckInvariants(Scheduler* scheduler, const ServeStats& stats,
                     const std::string& label) {
  // Abandoned runners may still be finishing their last attempt.
  scheduler->RunUntilIdle();
  auto c = scheduler->counters();
  EXPECT_EQ(c.admitted,
            c.completed + c.tripped_partial + c.failed + c.cancelled)
      << label << ": a scheduler-admitted query escaped its terminal bucket";
  const SessionCounters& t = stats.totals;
  EXPECT_EQ(t.queries_accepted,
            t.delivered_completed + t.delivered_tripped +
                t.delivered_cancelled + t.delivered_failed + t.abandoned)
      << label << ": a session-accepted query was neither delivered nor "
      << "abandoned";
  EXPECT_EQ(scheduler->retained(), 0u)
      << label << ": the scheduler kept a handed-over or abandoned query";
}

// Deterministic-scheduler sweep: the drain lands while queries are still
// queued and clients are still submitting; network faults tear frames,
// drop connections, stall writes, and refuse accepts.
TEST_F(ServeSoakTest, DrainUnderLoadWithNetworkFaults) {
  for (uint64_t seed : SoakSeeds()) {
    auto config =
        FaultInjector::ParseSpec("network=0.02,seed=" + std::to_string(seed));
    ASSERT_TRUE(config.ok()) << config.status();
    FaultInjector::Global().Configure(*config);
    SchedulerOptions sched;
    sched.deterministic = true;
    sched.seed = seed;
    Scheduler scheduler(sched);
    ServeOptions options;
    options.session.max_inflight = 8;
    options.session.page_rows = 2;  // many pages -> many fault draws
    auto outcome = ServeSimulated(&scheduler, options, SoakSpecs(4, 6),
                                  /*drain_at_ms=*/3, /*max_ms=*/20000);
    CheckInvariants(&scheduler, outcome.stats,
                    "seed=" + std::to_string(seed));
    FaultInjector::Global().Reset();
  }
}

// Real-mode sweep: the scheduler runs queries on its worker pool while
// the single serve thread pumps sessions, so TryWait/Cancel/BeginDrain/
// PreemptAll race real evaluations (TSan coverage). workers=1,2,8 per the
// robustness acceptance matrix.
TEST_F(ServeSoakTest, ThreadedSchedulerSweep) {
  for (size_t workers : {1u, 2u, 8u}) {
    for (uint64_t seed : SoakSeeds()) {
      auto config = FaultInjector::ParseSpec("network=0.01,seed=" +
                                             std::to_string(seed));
      ASSERT_TRUE(config.ok()) << config.status();
      FaultInjector::Global().Configure(*config);
      SchedulerOptions sched;
      sched.workers = workers;
      sched.seed = seed;
      sched.retry_base_seconds = 0.001;
      Scheduler scheduler(sched);
      ServeOptions options;
      options.session.max_inflight = 8;
      options.session.page_rows = 4;
      auto outcome = ServeSimulated(&scheduler, options, SoakSpecs(3, 5),
                                    /*drain_at_ms=*/2, /*max_ms=*/20000);
      CheckInvariants(&scheduler, outcome.stats,
                      "workers=" + std::to_string(workers) +
                          " seed=" + std::to_string(seed));
      FaultInjector::Global().Reset();
    }
  }
}

// The trace-replay byte-identity acceptance test: the full serving
// transcript (scheduler events interleaved with session events, frame by
// frame) is a pure function of (specs, scheduler seed, fault seed).
TEST_F(ServeSoakTest, TraceReplayIsByteIdentical) {
  auto run = [&](uint64_t seed) {
    auto config =
        FaultInjector::ParseSpec("network=0.03,seed=" + std::to_string(seed));
    EXPECT_TRUE(config.ok());
    FaultInjector::Global().Configure(*config);
    std::ostringstream trace;
    SchedulerOptions sched;
    sched.deterministic = true;
    sched.seed = seed;
    sched.trace = &trace;
    Scheduler scheduler(sched);
    ServeOptions options;
    options.trace = &trace;
    options.session.page_rows = 2;
    ServeSimulated(&scheduler, options, SoakSpecs(3, 4), /*drain_at_ms=*/3,
                   /*max_ms=*/20000);
    EXPECT_EQ(scheduler.retained(), 0u) << "seed=" << seed;
    FaultInjector::Global().Reset();
    return trace.str();
  };
  for (uint64_t seed : SoakSeeds()) {
    std::string first = run(seed);
    std::string replay = run(seed);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, replay) << "seed=" << seed;
  }
  EXPECT_NE(run(1), run(2));  // the seed genuinely steers the transcript
}

}  // namespace
}  // namespace server
}  // namespace iqlkit
