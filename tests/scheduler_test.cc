#include "server/scheduler.h"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/fault_injection.h"
#include "iql/eval.h"
#include "iql/parser.h"
#include "model/universe.h"

// The concurrent-query scheduler: admission control (bounded queue,
// per-class quotas, reservation fit), degrade/preempt under a global
// memory budget, jittered retry of transient failures, deterministic
// virtual-clock traces, and byte-identity of scheduled outputs with
// standalone serial runs.
namespace iqlkit {
namespace {

using server::ParseQueryClass;
using server::QueryClass;
using server::QueryClassName;
using server::QueryOutcome;
using server::QueryOutcomeName;
using server::QueryRequest;
using server::QueryResult;
using server::Scheduler;
using server::SchedulerOptions;

constexpr const char* kTransitiveClosure = R"(
  schema { relation E : [D, D]; relation TC : [D, D]; }
  instance {
    E(["a", "b"]); E(["b", "c"]); E(["c", "d"]); E(["d", "e"]);
  }
  program {
    TC(x, y) :- E(x, y).
    TC(x, z) :- TC(x, y), E(y, z).
  }
)";

// Invents a fresh oid per step: diverges, so only a budget ends it. Used
// where a query must still be running when the scheduler intervenes.
constexpr const char* kDivergent = R"(
  schema { relation R3 : [P, P]; class P : D; }
  instance {
    P(@a); P(@b);
    R3([@a, @b]);
  }
  program {
    R3(y, z) :- R3(x, y).
  }
)";

// The injector is process-global; every test restores the disabled state.
class SchedulerTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

// Reference output: a standalone serial evaluation of `source`, the
// byte-identity baseline every scheduled run must reproduce.
std::string SerialFacts(const char* source) {
  Universe u;
  auto unit = ParseUnit(&u, source);
  EXPECT_TRUE(unit.ok()) << unit.status();
  Instance input(&unit->schema, &u);
  Status applied = ApplyFacts(*unit, &input);
  EXPECT_TRUE(applied.ok()) << applied;
  EvalOptions options;
  options.num_threads = 1;
  auto result = RunUnit(&u, &*unit, input, options);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? WriteFacts(*result) : std::string();
}

QueryRequest MakeRequest(const std::string& id, const char* source) {
  QueryRequest request;
  request.id = id;
  request.source = source;
  return request;
}

TEST_F(SchedulerTest, NamesRoundTrip) {
  EXPECT_STREQ(QueryClassName(QueryClass::kInteractive), "interactive");
  EXPECT_STREQ(QueryClassName(QueryClass::kBatch), "batch");
  auto interactive = ParseQueryClass("interactive");
  ASSERT_TRUE(interactive.ok());
  EXPECT_EQ(*interactive, QueryClass::kInteractive);
  EXPECT_FALSE(ParseQueryClass("urgent").ok());
  EXPECT_STREQ(QueryOutcomeName(QueryOutcome::kCompleted), "completed");
  EXPECT_STREQ(QueryOutcomeName(QueryOutcome::kTrippedPartial),
               "tripped-partial");
  EXPECT_STREQ(QueryOutcomeName(QueryOutcome::kRejected), "rejected");
  EXPECT_STREQ(QueryOutcomeName(QueryOutcome::kFailed), "failed");
}

TEST_F(SchedulerTest, CompletedQueryIsByteIdenticalToSerialRun) {
  std::string reference = SerialFacts(kTransitiveClosure);
  ASSERT_FALSE(reference.empty());
  SchedulerOptions options;
  options.deterministic = true;
  Scheduler scheduler(options);
  auto ticket = scheduler.Submit(MakeRequest("tc", kTransitiveClosure));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  QueryResult result = scheduler.Wait(*ticket);
  EXPECT_EQ(result.outcome, QueryOutcome::kCompleted);
  EXPECT_TRUE(result.status.ok()) << result.status;
  EXPECT_EQ(result.attempts, 1);
  EXPECT_FALSE(result.preempted);
  EXPECT_EQ(result.facts, reference);
}

TEST_F(SchedulerTest, QueueFullRejectsWithStructuredStatus) {
  SchedulerOptions options;
  options.deterministic = true;  // nothing runs until RunUntilIdle
  options.queue_capacity = 2;
  Scheduler scheduler(options);
  ASSERT_TRUE(scheduler.Submit(MakeRequest("a", kTransitiveClosure)).ok());
  ASSERT_TRUE(scheduler.Submit(MakeRequest("b", kTransitiveClosure)).ok());
  auto rejected = scheduler.Submit(MakeRequest("c", kTransitiveClosure));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kQueueFull);
  auto counters = scheduler.counters();
  EXPECT_EQ(counters.rejected_queue_full, 1u);
  EXPECT_EQ(counters.admitted, 2u);
}

TEST_F(SchedulerTest, ClassQuotaRejectsWithOverload) {
  SchedulerOptions options;
  options.deterministic = true;
  options.class_quota[static_cast<int>(QueryClass::kInteractive)] = 1;
  Scheduler scheduler(options);
  QueryRequest first = MakeRequest("i1", kTransitiveClosure);
  first.cls = QueryClass::kInteractive;
  ASSERT_TRUE(scheduler.Submit(std::move(first)).ok());
  QueryRequest second = MakeRequest("i2", kTransitiveClosure);
  second.cls = QueryClass::kInteractive;
  auto rejected = scheduler.Submit(std::move(second));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);
  // The batch class has no quota, so batch admission is unaffected.
  EXPECT_TRUE(scheduler.Submit(MakeRequest("b1", kTransitiveClosure)).ok());
  EXPECT_EQ(scheduler.counters().rejected_overload, 1u);
}

TEST_F(SchedulerTest, ImpossibleReservationRejectsWithOverload) {
  SchedulerOptions options;
  options.deterministic = true;
  options.global_memory_budget = 1024;
  Scheduler scheduler(options);
  QueryRequest request = MakeRequest("huge", kTransitiveClosure);
  request.reserve_bytes = 4096;
  auto rejected = scheduler.Submit(std::move(request));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);
}

TEST_F(SchedulerTest, DuplicateIdRejected) {
  SchedulerOptions options;
  options.deterministic = true;
  Scheduler scheduler(options);
  ASSERT_TRUE(scheduler.Submit(MakeRequest("q", kTransitiveClosure)).ok());
  auto dup = scheduler.Submit(MakeRequest("q", kTransitiveClosure));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SchedulerTest, DispatchOrderIsPriorityThenClassThenTicket) {
  std::ostringstream trace;
  SchedulerOptions options;
  options.deterministic = true;
  options.trace = &trace;
  Scheduler scheduler(options);
  QueryRequest low = MakeRequest("low", kTransitiveClosure);
  low.priority = -1;
  QueryRequest batch = MakeRequest("batch", kTransitiveClosure);
  QueryRequest interactive = MakeRequest("interactive", kTransitiveClosure);
  interactive.cls = QueryClass::kInteractive;
  QueryRequest high = MakeRequest("high", kTransitiveClosure);
  high.priority = 7;
  ASSERT_TRUE(scheduler.Submit(std::move(low)).ok());
  ASSERT_TRUE(scheduler.Submit(std::move(batch)).ok());
  ASSERT_TRUE(scheduler.Submit(std::move(interactive)).ok());
  ASSERT_TRUE(scheduler.Submit(std::move(high)).ok());
  scheduler.RunUntilIdle();
  std::vector<std::string> starts;
  std::istringstream lines(trace.str());
  std::string line;
  while (std::getline(lines, line)) {
    auto pos = line.find(" START id=");
    if (pos == std::string::npos) continue;
    std::string id = line.substr(pos + 10);
    starts.push_back(id.substr(0, id.find(' ')));
  }
  ASSERT_EQ(starts.size(), 4u);
  EXPECT_EQ(starts[0], "high");         // priority desc first
  EXPECT_EQ(starts[1], "interactive");  // class breaks priority ties
  EXPECT_EQ(starts[2], "batch");        // then submission order
  EXPECT_EQ(starts[3], "low");
}

TEST_F(SchedulerTest, InjectedDispatchFaultRetriesThenFailsWhenPersistent) {
  FaultInjector::Config faults;
  faults.p_sched = 1.0;  // every dispatch attempt fails
  FaultInjector::Global().Configure(faults);
  SchedulerOptions options;
  options.deterministic = true;
  options.max_retries = 2;
  Scheduler scheduler(options);
  auto ticket = scheduler.Submit(MakeRequest("doomed", kTransitiveClosure));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  QueryResult result = scheduler.Wait(*ticket);
  EXPECT_EQ(result.outcome, QueryOutcome::kFailed);
  EXPECT_EQ(result.status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(result.attempts, 3);  // initial + max_retries
  auto counters = scheduler.counters();
  EXPECT_EQ(counters.retries, 2u);
  EXPECT_EQ(counters.failed, 1u);
}

TEST_F(SchedulerTest, TransientFaultRetriesThenCompletes) {
  // Scan for a seed whose first kScheduler draw fails and a later one
  // succeeds: the query then completes on a retry with the same bytes a
  // fault-free serial run produces.
  std::string reference = SerialFacts(kTransitiveClosure);
  bool found = false;
  for (uint64_t seed = 0; seed < 64 && !found; ++seed) {
    FaultInjector::Config faults;
    faults.seed = seed;
    faults.p_sched = 0.5;
    FaultInjector::Global().Configure(faults);
    SchedulerOptions options;
    options.deterministic = true;
    options.max_retries = 3;
    options.seed = seed;
    Scheduler scheduler(options);
    auto ticket = scheduler.Submit(MakeRequest("flaky", kTransitiveClosure));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    QueryResult result = scheduler.Wait(*ticket);
    if (result.outcome == QueryOutcome::kCompleted && result.attempts > 1) {
      EXPECT_EQ(result.facts, reference);
      EXPECT_GE(scheduler.counters().retries, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no seed in [0,64) produced a retried completion";
}

TEST_F(SchedulerTest, BackoffDelaysRetryByAtLeastTheBase) {
  FaultInjector::Config faults;
  faults.p_sched = 1.0;
  FaultInjector::Global().Configure(faults);
  SchedulerOptions options;
  options.deterministic = true;
  options.max_retries = 1;
  options.retry_base_seconds = 0.1;  // >= 50 virtual ticks after jitter
  Scheduler scheduler(options);
  auto ticket = scheduler.Submit(MakeRequest("slow", kTransitiveClosure));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  QueryResult result = scheduler.Wait(*ticket);
  EXPECT_EQ(result.attempts, 2);
  // Jitter is in [0.5, 1.5), so the one backoff is at least base/2.
  EXPECT_GE(result.finish_tick - result.submit_tick, 50u);
}

TEST_F(SchedulerTest, DegradationYieldsPartialAndMarksPreempted) {
  SchedulerOptions options;
  options.deterministic = true;
  options.global_memory_budget = 32 * 1024;
  options.default_reserve_bytes = 1024;
  options.max_retries = 0;
  std::ostringstream trace;
  options.trace = &trace;
  Scheduler scheduler(options);
  // Two divergent queries with ample per-query ceilings: their combined
  // appetite crosses the global budget, so the scheduler must intervene.
  for (const char* id : {"d1", "d2"}) {
    QueryRequest request = MakeRequest(id, kDivergent);
    request.limits.max_steps_per_stage = 1000;
    ASSERT_TRUE(scheduler.Submit(std::move(request)).ok());
  }
  scheduler.RunUntilIdle();
  auto counters = scheduler.counters();
  EXPECT_GE(counters.degradations, 1u);
  EXPECT_EQ(counters.completed, 0u);
  EXPECT_EQ(counters.tripped_partial, 2u);
  for (uint64_t ticket : {uint64_t{1}, uint64_t{2}}) {
    QueryResult result = scheduler.Wait(ticket);
    EXPECT_EQ(result.outcome, QueryOutcome::kTrippedPartial);
    EXPECT_TRUE(result.preempted);
    EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
    // The rolled-back partial still serializes (at minimum the input).
    EXPECT_NE(result.facts.find("instance {"), std::string::npos);
  }
  EXPECT_NE(trace.str().find("DEGRADE"), std::string::npos);
}

TEST_F(SchedulerTest, PreemptionShedsRunnerWithinItsReservation) {
  SchedulerOptions options;
  options.deterministic = true;
  options.global_memory_budget = 1 << 20;
  options.max_retries = 0;
  Scheduler scheduler(options);
  // Both queries reserve the whole budget: each fits alone, but while one
  // runs the other's reservation keeps the total over budget, and the
  // runner stays within its own reservation -- so the scheduler must shed
  // (preempt) rather than degrade.
  for (const char* id : {"p1", "p2"}) {
    QueryRequest request = MakeRequest(id, kDivergent);
    request.reserve_bytes = 1 << 20;
    request.limits.max_steps_per_stage = 100;
    ASSERT_TRUE(scheduler.Submit(std::move(request)).ok());
  }
  scheduler.RunUntilIdle();
  auto counters = scheduler.counters();
  EXPECT_GE(counters.preemptions, 1u);
  QueryResult first = scheduler.Wait(1);
  EXPECT_EQ(first.outcome, QueryOutcome::kTrippedPartial);
  EXPECT_EQ(first.status.code(), StatusCode::kOverloaded);
  EXPECT_TRUE(first.preempted);
}

TEST_F(SchedulerTest, DeterministicTraceIsReproducible) {
  auto run = [](uint64_t seed) {
    FaultInjector::Config faults;
    faults.seed = seed;
    faults.p_sched = 0.3;
    faults.p_trip = 0.01;
    FaultInjector::Global().Configure(faults);
    std::ostringstream trace;
    SchedulerOptions options;
    options.deterministic = true;
    options.seed = seed;
    options.queue_capacity = 3;
    options.global_memory_budget = 64 * 1024;
    options.default_reserve_bytes = 8 * 1024;
    options.trace = &trace;
    Scheduler scheduler(options);
    int which = 0;
    for (const char* id : {"q1", "q2", "q3", "q4"}) {
      QueryRequest request =
          MakeRequest(id, which % 2 == 0 ? kTransitiveClosure : kDivergent);
      request.limits.max_steps_per_stage = 50;
      request.cls = which % 2 == 0 ? QueryClass::kInteractive
                                   : QueryClass::kBatch;
      ++which;
      (void)scheduler.Submit(std::move(request));
    }
    scheduler.RunUntilIdle();
    return trace.str();
  };
  std::string first = run(11);
  std::string second = run(11);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same seed must replay the same trace";
}

TEST_F(SchedulerTest, RealModeConcurrentOutputsAreByteIdentical) {
  std::string reference = SerialFacts(kTransitiveClosure);
  SchedulerOptions options;
  options.workers = 4;
  Scheduler scheduler(options);
  std::vector<uint64_t> tickets;
  for (int i = 0; i < 8; ++i) {
    auto ticket = scheduler.Submit(
        MakeRequest("tc" + std::to_string(i), kTransitiveClosure));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    tickets.push_back(*ticket);
  }
  for (uint64_t ticket : tickets) {
    QueryResult result = scheduler.Wait(ticket);
    EXPECT_EQ(result.outcome, QueryOutcome::kCompleted);
    EXPECT_EQ(result.facts, reference);
  }
  EXPECT_EQ(scheduler.counters().completed, 8u);
}

TEST_F(SchedulerTest, WaitOnUnknownTicketFailsCleanly) {
  SchedulerOptions options;
  options.deterministic = true;
  Scheduler scheduler(options);
  QueryResult result = scheduler.Wait(99);
  EXPECT_EQ(result.outcome, QueryOutcome::kFailed);
  EXPECT_EQ(result.status.code(), StatusCode::kNotFound);
}

TEST_F(SchedulerTest, ParseErrorFailsWithoutRetry) {
  SchedulerOptions options;
  options.deterministic = true;
  Scheduler scheduler(options);
  auto ticket = scheduler.Submit(MakeRequest("bad", "schema { nope"));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  QueryResult result = scheduler.Wait(*ticket);
  EXPECT_EQ(result.outcome, QueryOutcome::kFailed);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(scheduler.counters().retries, 0u);
}

// ---- retirement: the scheduler holds only live work ----------------------

TEST_F(SchedulerTest, HandedOverResultsAreRetired) {
  std::string reference = SerialFacts(kTransitiveClosure);
  SchedulerOptions options;
  options.deterministic = true;
  Scheduler scheduler(options);
  uint64_t last = 0;
  for (int i = 0; i < 1000; ++i) {
    // Every other round reuses one id: a handed-over id is free again.
    std::string id = i % 2 == 0 ? "again" : "q" + std::to_string(i);
    auto ticket = scheduler.Submit(MakeRequest(id, kTransitiveClosure));
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    QueryResult result = scheduler.Wait(*ticket);
    ASSERT_EQ(result.outcome, QueryOutcome::kCompleted) << result.status;
    ASSERT_EQ(result.facts, reference);
    last = *ticket;
  }
  EXPECT_EQ(scheduler.retained(), 0u);
  EXPECT_EQ(scheduler.counters().completed, 1000u);
  // A handed-over ticket is forgotten, exactly like one never issued.
  QueryResult again = scheduler.Wait(last);
  EXPECT_EQ(again.outcome, QueryOutcome::kFailed);
  EXPECT_EQ(again.status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(scheduler.TryWait(last).has_value());
  EXPECT_FALSE(scheduler.Cancel(last, "too late"));
  EXPECT_FALSE(scheduler.Abandon(last, "too late"));
}

TEST_F(SchedulerTest, TryWaitHandsTheResultOverOnce) {
  SchedulerOptions options;
  options.deterministic = true;
  Scheduler scheduler(options);
  auto ticket = scheduler.Submit(MakeRequest("q", kTransitiveClosure));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  EXPECT_FALSE(scheduler.TryWait(*ticket).has_value());  // still queued
  scheduler.RunUntilIdle();
  EXPECT_EQ(scheduler.retained(), 1u);  // finished, not yet collected
  auto result = scheduler.TryWait(*ticket);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->outcome, QueryOutcome::kCompleted);
  EXPECT_EQ(scheduler.retained(), 0u);
  EXPECT_FALSE(scheduler.TryWait(*ticket).has_value());
}

TEST_F(SchedulerTest, AbandonedQueuedOrFinishedQueryIsRetired) {
  SchedulerOptions options;
  options.deterministic = true;
  Scheduler scheduler(options);
  auto finished = scheduler.Submit(MakeRequest("done", kTransitiveClosure));
  ASSERT_TRUE(finished.ok()) << finished.status();
  scheduler.RunUntilIdle();
  auto queued = scheduler.Submit(MakeRequest("queued", kTransitiveClosure));
  ASSERT_TRUE(queued.ok()) << queued.status();
  EXPECT_EQ(scheduler.retained(), 2u);
  // Abandon answers like Cancel: true only for a query it stopped.
  EXPECT_TRUE(scheduler.Abandon(*queued, "session closed"));
  EXPECT_FALSE(scheduler.Abandon(*finished, "session closed"));
  scheduler.RunUntilIdle();
  EXPECT_EQ(scheduler.retained(), 0u);
  auto counters = scheduler.counters();
  EXPECT_EQ(counters.completed, 1u);
  EXPECT_EQ(counters.cancelled, 1u);
  EXPECT_EQ(scheduler.Wait(*queued).status.code(), StatusCode::kNotFound);
}

TEST_F(SchedulerTest, AbandonedRunningQueryIsRetiredWhenItsAttemptEnds) {
  SchedulerOptions options;
  options.workers = 1;
  Scheduler scheduler(options);
  QueryRequest request = MakeRequest("diverges", kDivergent);
  request.limits.deadline_seconds = 60;  // a backstop; Abandon ends it
  // Real mode dispatches inside Submit: the query is running on return.
  auto ticket = scheduler.Submit(std::move(request));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  EXPECT_TRUE(scheduler.Abandon(*ticket, "session closed"));
  scheduler.RunUntilIdle();
  EXPECT_EQ(scheduler.retained(), 0u);
  auto counters = scheduler.counters();
  EXPECT_EQ(counters.cancelled, 1u);
  EXPECT_EQ(counters.retries, 0u);
  EXPECT_EQ(scheduler.Wait(*ticket).status.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace iqlkit
