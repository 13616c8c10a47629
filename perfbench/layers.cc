#include "layers.h"

#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "iql/eval.h"
#include "iql/parser.h"
#include "iql/typecheck.h"
#include "server/scheduler.h"
#include "server_process.h"
#include "storage/durable.h"

namespace perfbench {

int64_t SpanLog::Begin(const std::string& name, int64_t parent,
                       uint64_t query) {
  spans_.push_back(Span{name, Now(), 0, parent, query});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t span) { at(span).end = Now(); }

int64_t SpanLog::Add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, std::map<uint64_t, double>> SpanLog::SelfTimes() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) covered[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, std::map<uint64_t, double>> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name][s.query] += (s.end - s.start) - covered[i];
  }
  return self;
}

void SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) Fail("cannot write " + path);
  double origin = spans_.empty() ? 0 : spans_.front().start;
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"parent\":%lld,\"query\":%llu}\n",
                  s.name.c_str(), (s.start - origin) * 1e6,
                  (s.end - origin) * 1e6, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.query));
    out << line;
  }
}

namespace {

// Times every committed step the evaluator hands to the durable sink.
class TimedSink : public iqlkit::StepCommitSink {
 public:
  TimedSink(iqlkit::StepCommitSink* inner, SpanLog* log, int64_t parent,
            uint64_t query)
      : inner_(inner), log_(log), parent_(parent), query_(query) {}

  iqlkit::Status OnStepCommit(const iqlkit::StepCommit& commit) override {
    ScopedSpan span(log_, "storage.commit", parent_, query_);
    return inner_->OnStepCommit(commit);
  }

 private:
  iqlkit::StepCommitSink* inner_;
  SpanLog* log_;
  int64_t parent_;
  uint64_t query_;
};

void Check(const iqlkit::Status& status, const char* what) {
  if (!status.ok()) Fail(std::string(what) + ": " + status.ToString());
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

}  // namespace

namespace {

// The timed part of ReplayQuery: every call under one "replay" root span.
std::string TimedReplay(const Workload& workload, const Query& query,
                        const std::string& data_dir, SpanLog* log,
                        ReplayCounts* counts) {
  const uint64_t q = query.index;
  ScopedSpan root(log, "replay", -1, q);
  iqlkit::Universe universe;
  std::optional<iqlkit::ParsedUnit> unit;
  {
    ScopedSpan span(log, "parse", root.id(), q);
    auto parsed = iqlkit::ParseUnit(&universe, query.source);
    Check(parsed.status(), "ParseUnit");
    unit.emplace(std::move(*parsed));
  }
  {
    ScopedSpan span(log, "typecheck", root.id(), q);
    Check(iqlkit::TypeCheck(&universe, unit->schema, &unit->program),
          "TypeCheck");
  }
  std::optional<iqlkit::storage::QueryDurability> durable;
  if (workload.durable) {
    ScopedSpan span(log, "storage.recover", root.id(), q);
    iqlkit::storage::DurabilityConfig config;
    config.fsync = false;
    durable.emplace(iqlkit::storage::QueryDurability::Open(
        data_dir + "/q-replay-" + std::to_string(q), config));
    if (!durable->active()) Check(durable->warning(), "QueryDurability::Open");
    std::shared_ptr<const iqlkit::Schema> schema(
        std::shared_ptr<const iqlkit::Schema>(), &unit->schema);
    auto projected = unit->schema.Project(unit->output_names);
    Check(projected.status(), "Schema::Project");
    auto out_schema =
        std::make_shared<const iqlkit::Schema>(std::move(*projected));
    auto recovered = durable->Recover(schema, out_schema, &universe);
    Check(recovered.status(), "QueryDurability::Recover");
    if (recovered->has_value()) Fail("a fresh query directory had state");
  }
  iqlkit::Instance input(&unit->schema, &universe);
  {
    ScopedSpan span(log, "parse.apply", root.id(), q);
    Check(iqlkit::ApplyFacts(*unit, &input), "ApplyFacts");
  }
  if (durable.has_value()) {
    ScopedSpan span(log, "storage.begin", root.id(), q);
    Check(durable->BeginRun(input), "QueryDurability::BeginRun");
  }
  iqlkit::EvalOptions options;
  options.num_threads = 1;  // as the scheduler runs every query
  iqlkit::EvalStats stats;
  std::optional<iqlkit::Instance> output;
  {
    ScopedSpan span(log, "eval", root.id(), q);
    TimedSink sink(durable.has_value() ? &*durable : nullptr, log, span.id(),
                   q);
    if (durable.has_value()) options.durability.sink = &sink;
    auto result = iqlkit::RunUnit(&universe, &*unit, input, options, &stats);
    Check(result.status(), "RunUnit");
    output.emplace(std::move(*result));
  }
  std::string facts;
  {
    ScopedSpan span(log, "facts.write", root.id(), q);
    facts = iqlkit::WriteFacts(*output);
  }
  if (durable.has_value()) {
    ScopedSpan span(log, "storage.finalize", root.id(), q);
    Check(durable->Finalize(*output), "QueryDurability::Finalize");
    counts->wal_frames = durable->frames_appended();
    counts->data_dir_bytes = DirBytes(durable->dir());
  }
  counts->steps = stats.steps;
  counts->derivations = stats.derivations;
  counts->facts_added = stats.facts_added;
  counts->invented_oids = stats.invented_oids;
  counts->peak_memory_bytes = stats.peak_memory_bytes;
  counts->facts_bytes = facts.size();
  return facts;
}

}  // namespace

std::string ReplayQuery(const Workload& workload, const Query& query,
                        const std::string& data_dir, SpanLog* log,
                        ReplayCounts* counts) {
  std::string facts = TimedReplay(workload, query, data_dir, log, counts);

  // Index counters need EvalOptions::metrics, which the served path runs
  // without; take them from a second, untimed evaluation.
  iqlkit::Universe universe;
  auto unit = iqlkit::ParseUnit(&universe, query.source);
  Check(unit.status(), "ParseUnit");
  iqlkit::Instance input(&unit->schema, &universe);
  Check(iqlkit::ApplyFacts(*unit, &input), "ApplyFacts");
  iqlkit::EvalMetrics metrics;
  iqlkit::EvalOptions options;
  options.num_threads = 1;
  options.metrics = &metrics;
  Check(iqlkit::RunUnit(&universe, &*unit, input, options).status(), "RunUnit");
  counts->index_probes = metrics.index_probes;
  counts->index_hits = metrics.index_hits;
  return facts;
}

SchedulerFeed FeedScheduler(const Workload& workload, uint64_t seed,
                            double seconds, const std::string& data_dir,
                            SpanLog* log) {
  iqlkit::server::SchedulerOptions options;
  if (workload.durable) {
    options.data_dir = data_dir;
    options.durability.fsync = false;
  }
  SchedulerFeed feed;
  iqlkit::server::Scheduler scheduler(options);
  std::deque<uint64_t> tickets;
  uint64_t index = 0;
  auto submit = [&] {
    iqlkit::server::QueryRequest request;
    request.id = "f";
    request.id += std::to_string(index);
    request.source = MakeQuery(workload, seed, index).source;
    auto ticket = [&] {
      ScopedSpan span(log, "scheduler.submit", -1, index);
      return scheduler.Submit(std::move(request));
    }();
    ++index;
    if (ticket.ok()) tickets.push_back(*ticket);
  };
  double end = Now() + seconds;
  for (int k = 0; k < 4; ++k) submit();
  while (!tickets.empty()) {
    iqlkit::server::QueryResult result = scheduler.Wait(tickets.front());
    tickets.pop_front();
    if (result.outcome != iqlkit::server::QueryOutcome::kCompleted) {
      ++feed.not_completed;
    }
    feed.queue_ms.push_back(
        static_cast<double>(result.finish_tick - result.submit_tick) -
        result.stats.elapsed_seconds * 1e3);
    if (Now() < end) submit();
  }
  auto c = scheduler.counters();
  feed.rejected =
      c.rejected_queue_full + c.rejected_overload + c.rejected_draining;
  feed.retries = c.retries;
  return feed;
}

}  // namespace perfbench
